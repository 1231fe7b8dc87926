//! A countdown latch for detecting the end of a training round.
//!
//! The training engine knows how many terminal events a round produces
//! (e.g. one per updated edge plus one per input node of the backward
//! graph); the driver thread waits on a latch that those tasks count
//! down. This keeps the workers themselves free of any notion of
//! "rounds".

use parking_lot::{Condvar, Mutex};

/// A reusable countdown latch.
pub struct Latch {
    count: Mutex<usize>,
    cond: Condvar,
}

impl Latch {
    /// A latch that opens after `count` calls to [`Latch::count_down`].
    pub fn new(count: usize) -> Self {
        Latch {
            count: Mutex::new(count),
            cond: Condvar::new(),
        }
    }

    /// Records one event; wakes waiters when the count reaches zero.
    ///
    /// Counting down an already-open latch is a no-op rather than a
    /// panic: when a poisoned round force-opens a latch with
    /// [`Latch::open`], healthy straggler tasks still in flight finish
    /// afterwards and count down a latch that is already at zero —
    /// that is legitimate, not a protocol violation.
    pub fn count_down(&self) {
        let mut c = self.count.lock();
        if *c == 0 {
            return;
        }
        *c -= 1;
        if *c == 0 {
            self.cond.notify_all();
        }
    }

    /// Forces the latch open regardless of the remaining count, waking
    /// every waiter. Used by the engine's panic containment: a poisoned
    /// round can never deliver its remaining events, so the driver is
    /// released immediately and recovery proceeds.
    pub fn open(&self) {
        let mut c = self.count.lock();
        *c = 0;
        self.cond.notify_all();
    }

    /// Blocks until the count reaches zero.
    pub fn wait(&self) {
        let mut c = self.count.lock();
        while *c > 0 {
            self.cond.wait(&mut c);
        }
    }

    /// Blocks until the count reaches zero or `timeout` elapses; returns
    /// `true` if the latch opened.
    #[cfg(test)]
    pub(crate) fn wait_timeout(&self, timeout: std::time::Duration) -> bool {
        let deadline = std::time::Instant::now() + timeout;
        let mut c = self.count.lock();
        while *c > 0 {
            if self.cond.wait_until(&mut c, deadline).timed_out() {
                return *c == 0;
            }
        }
        true
    }

    /// Re-arms the latch for another round. Must only be called while no
    /// thread is waiting.
    pub fn reset(&self, count: usize) {
        *self.count.lock() = count;
    }

    /// Current remaining count.
    pub fn remaining(&self) -> usize {
        *self.count.lock()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn opens_after_exact_count() {
        let l = Latch::new(3);
        l.count_down();
        l.count_down();
        assert_eq!(l.remaining(), 1);
        l.count_down();
        l.wait(); // must not block
    }

    #[test]
    fn wakes_waiting_thread() {
        let l = Arc::new(Latch::new(2));
        let l2 = Arc::clone(&l);
        let waiter = std::thread::spawn(move || l2.wait());
        std::thread::sleep(Duration::from_millis(10));
        l.count_down();
        l.count_down();
        waiter.join().unwrap();
    }

    #[test]
    fn timeout_expires_when_unopened() {
        let l = Latch::new(1);
        assert!(!l.wait_timeout(Duration::from_millis(20)));
        l.count_down();
        assert!(l.wait_timeout(Duration::from_millis(20)));
    }

    #[test]
    fn reset_rearms() {
        let l = Latch::new(1);
        l.count_down();
        l.wait();
        l.reset(2);
        assert_eq!(l.remaining(), 2);
        l.count_down();
        l.count_down();
        l.wait();
    }

    #[test]
    fn overcounting_saturates_at_zero() {
        // stragglers of a force-opened round count down an open latch
        let l = Latch::new(1);
        l.count_down();
        l.count_down(); // no-op, not a panic
        assert_eq!(l.remaining(), 0);
        l.reset(2);
        assert_eq!(l.remaining(), 2, "saturation must not break re-arming");
    }

    #[test]
    fn open_releases_waiters_immediately() {
        let l = Arc::new(Latch::new(5));
        let l2 = Arc::clone(&l);
        let waiter = std::thread::spawn(move || l2.wait());
        std::thread::sleep(Duration::from_millis(10));
        l.open();
        waiter.join().unwrap();
        assert_eq!(l.remaining(), 0);
        // stragglers after the open are harmless
        l.count_down();
        assert_eq!(l.remaining(), 0);
    }
}
