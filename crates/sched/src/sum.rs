//! Wait-free concurrent summation (paper §VII-B, Algorithm 4).
//!
//! When multiple convolutions converge on one computation-graph node,
//! their results must be summed. A naive lock around `sum += image`
//! would serialize O(n³) additions. Algorithm 4 keeps only **pointer
//! swaps** inside the critical section: each contributing thread tries
//! to park its image in the shared slot; if the slot is occupied it
//! *takes* the parked image instead, merges outside the lock, and
//! retries. No thread ever waits for another's addition.

use parking_lot::Mutex;
use std::collections::VecDeque;

/// Values that can absorb another value of the same type — the
/// `ADD-TO(v, v')` of Algorithm 4.
pub trait Accumulate {
    /// Merges `other` into `self`.
    fn accumulate(&mut self, other: Self);
}

impl Accumulate for f64 {
    fn accumulate(&mut self, other: Self) {
        *self += other;
    }
}

impl Accumulate for usize {
    fn accumulate(&mut self, other: Self) {
        *self += other;
    }
}

struct Slot<T> {
    sum: Option<T>,
    total: usize,
    /// Completed sums not yet taken, oldest first. Completing moves the
    /// sum here and re-arms the slot, so a contribution that arrives
    /// before the completing caller's `take` starts the next sum
    /// instead of merging into this one.
    done: VecDeque<T>,
}

/// A reusable concurrent accumulator for a known number of
/// contributions.
///
/// The structure mirrors Algorithm 4: `S.sum` is the parked value,
/// `S.total` counts parked contributions, `S.required` is the number of
/// convergent edges. [`ConcurrentSum::add`] returns `true` to exactly
/// one caller — the one whose parking completed the sum — which then
/// collects the result with [`ConcurrentSum::take`] and schedules the
/// dependent tasks (Algorithm 1, lines 2–6).
pub struct ConcurrentSum<T> {
    slot: Mutex<Slot<T>>,
    required: usize,
}

impl<T: Accumulate> ConcurrentSum<T> {
    /// An accumulator expecting `required >= 1` contributions.
    pub fn new(required: usize) -> Self {
        assert!(required >= 1, "a sum needs at least one contribution");
        ConcurrentSum {
            slot: Mutex::new(Slot {
                sum: None,
                total: 0,
                done: VecDeque::new(),
            }),
            required,
        }
    }

    /// Number of contributions the accumulator waits for.
    pub fn required(&self) -> usize {
        self.required
    }

    /// Contributes `v`; returns `true` iff this call completed the sum
    /// (Algorithm 4's `last`). The heavy merge work runs outside the
    /// lock; the critical section is two pointer-sized writes.
    pub fn add(&self, mut v: T) -> bool {
        let mut merged: Option<T>;
        loop {
            {
                let mut slot = self.slot.lock();
                if slot.sum.is_none() {
                    slot.total += 1;
                    if slot.total < self.required {
                        slot.sum = Some(v);
                        return false;
                    }
                    slot.total = 0;
                    slot.done.push_back(v);
                    return true;
                }
                merged = slot.sum.take();
            }
            // outside the critical section: v = v + v'
            let other = merged.take().expect("taken under lock");
            v.accumulate(other);
        }
    }

    /// Discards any partial (or complete-but-untaken) sum and re-arms
    /// the accumulator. This is the recovery path for a *poisoned*
    /// round: when a contributing task panics, the sum can be left
    /// mid-flight — some contributions parked, the completing `take`
    /// never issued — and the next round would deadlock on it. The
    /// caller must guarantee no contributor is still running (the
    /// engine quiesces its scheduler first).
    pub fn reset(&self) {
        let mut slot = self.slot.lock();
        slot.sum = None;
        slot.total = 0;
        slot.done.clear();
    }

    /// Collects the oldest completed sum. Panics if no sum is complete
    /// — callers must only invoke this after [`ConcurrentSum::add`]
    /// returned `true`.
    pub fn take(&self) -> T {
        self.slot
            .lock()
            .done
            .pop_front()
            .expect("take() before the sum completed")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    #[test]
    fn single_contribution() {
        let s = ConcurrentSum::<f64>::new(1);
        assert!(s.add(2.5));
        assert_eq!(s.take(), 2.5);
    }

    #[test]
    fn sequential_contributions_sum() {
        let s = ConcurrentSum::<f64>::new(3);
        assert!(!s.add(1.0));
        assert!(!s.add(2.0));
        assert!(s.add(4.0));
        assert_eq!(s.take(), 7.0);
    }

    #[test]
    fn reusable_across_rounds() {
        let s = ConcurrentSum::<usize>::new(2);
        for round in 1..5usize {
            assert!(!s.add(round));
            assert!(s.add(round * 10));
            assert_eq!(s.take(), round * 11);
        }
    }

    #[test]
    fn reset_discards_partial_sums() {
        let s = ConcurrentSum::<f64>::new(3);
        assert!(!s.add(1.0)); // a poisoned round leaves a partial sum
        s.reset();
        // the accumulator works normally again
        assert!(!s.add(10.0));
        assert!(!s.add(20.0));
        assert!(s.add(30.0));
        assert_eq!(s.take(), 60.0);
        // reset after a completed-but-untaken sum also re-arms
        assert!(!s.add(1.0));
        assert!(!s.add(2.0));
        assert!(s.add(3.0));
        s.reset();
        assert!(!s.add(5.0));
    }

    #[test]
    fn next_rounds_contribution_before_take_starts_a_new_sum() {
        let s = ConcurrentSum::<usize>::new(2);
        assert!(!s.add(1));
        assert!(s.add(2));
        // the next round's first contribution beats the completing
        // caller's take: it must not merge into the completed sum
        assert!(!s.add(10));
        assert_eq!(s.take(), 3);
        assert!(s.add(20));
        assert_eq!(s.take(), 30);
    }

    #[test]
    #[should_panic(expected = "before the sum completed")]
    fn take_panics_when_incomplete() {
        let s = ConcurrentSum::<f64>::new(2);
        s.add(1.0);
        let _ = s.take();
    }

    #[test]
    fn exactly_one_caller_sees_last_under_contention() {
        for _ in 0..50 {
            let n = 8;
            let s = Arc::new(ConcurrentSum::<usize>::new(n));
            let lasts = Arc::new(AtomicUsize::new(0));
            let handles: Vec<_> = (0..n)
                .map(|i| {
                    let s = Arc::clone(&s);
                    let lasts = Arc::clone(&lasts);
                    std::thread::spawn(move || {
                        if s.add(1 << i) {
                            lasts.fetch_add(1, Ordering::SeqCst);
                        }
                    })
                })
                .collect();
            for h in handles {
                h.join().unwrap();
            }
            assert_eq!(lasts.load(Ordering::SeqCst), 1);
            assert_eq!(s.take(), (1 << n) - 1, "every contribution counted once");
        }
    }

    /// An Accumulate impl that records how long merges take to show the
    /// merge happens outside the lock (threads make progress in
    /// parallel). This is a smoke test, not a timing proof.
    #[test]
    fn heavy_merges_do_not_serialize_completion() {
        #[derive(Clone)]
        struct Slow(Vec<u64>);
        impl Accumulate for Slow {
            fn accumulate(&mut self, other: Self) {
                for (a, b) in self.0.iter_mut().zip(other.0) {
                    *a += b;
                }
            }
        }
        let n = 4;
        let s = Arc::new(ConcurrentSum::<Slow>::new(n));
        let handles: Vec<_> = (0..n)
            .map(|i| {
                let s = Arc::clone(&s);
                std::thread::spawn(move || s.add(Slow(vec![i as u64 + 1; 1 << 16])))
            })
            .collect();
        let lasts = handles
            .into_iter()
            .map(|h| h.join().unwrap())
            .filter(|&last| last)
            .count();
        assert_eq!(lasts, 1);
        let total = s.take();
        assert_eq!(total.0[0], (1..=n as u64).sum::<u64>());
        assert_eq!(total.0[1 << 15], (1..=n as u64).sum::<u64>());
    }
}
