//! Property-based tests for the scheduling machinery: queue ordering
//! invariants across policies, concurrent-sum linearizability, and the
//! FORCE protocol under randomized interleavings.

use proptest::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use znn_sched::queue::TaskQueue;
use znn_sched::{ConcurrentSum, Latch, QueuePolicy, UpdateHandle};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The priority queue is a stable priority sort: output is ordered
    /// by priority, and FIFO within equal priorities.
    #[test]
    fn priority_queue_is_a_stable_sort(items in proptest::collection::vec(0u64..6, 0..60)) {
        let mut q = TaskQueue::new(QueuePolicy::Priority);
        for (i, &p) in items.iter().enumerate() {
            q.push(p, (p, i));
        }
        let mut out = Vec::new();
        while let Some(x) = q.pop() {
            out.push(x);
        }
        prop_assert_eq!(out.len(), items.len());
        for w in out.windows(2) {
            prop_assert!(w[0].0 <= w[1].0, "priority order violated");
            if w[0].0 == w[1].0 {
                prop_assert!(w[0].1 < w[1].1, "FIFO tie order violated");
            }
        }
    }

    /// The heap-of-lists pops exactly the schedule of a reference heap
    /// keyed on (priority, arrival) for every task: the same order from
    /// O(log K) map work instead of O(log N).
    #[test]
    fn heap_policies_agree(items in proptest::collection::vec(0u64..10, 0..80)) {
        let mut q = TaskQueue::new(QueuePolicy::Priority);
        let mut reference = std::collections::BinaryHeap::new();
        for (i, &p) in items.iter().enumerate() {
            q.push(p, i);
            reference.push(std::cmp::Reverse((p, i)));
        }
        loop {
            let (x, y) = (q.pop(), reference.pop().map(|std::cmp::Reverse((_, i))| i));
            prop_assert_eq!(x, y);
            if x.is_none() {
                break;
            }
        }
    }

    /// Interleaved pushes and pops never lose or duplicate tasks.
    #[test]
    fn queue_conserves_tasks(
        script in proptest::collection::vec((any::<bool>(), 0u64..5), 1..100)
    ) {
        for policy in [QueuePolicy::Priority, QueuePolicy::Fifo, QueuePolicy::Lifo] {
            let mut q = TaskQueue::new(policy);
            let mut pushed = 0usize;
            let mut popped = 0usize;
            for (i, &(push, p)) in script.iter().enumerate() {
                if push {
                    q.push(p, i);
                    pushed += 1;
                } else if q.pop().is_some() {
                    popped += 1;
                }
            }
            while q.pop().is_some() {
                popped += 1;
            }
            prop_assert_eq!(pushed, popped, "{:?}", policy);
            prop_assert!(q.is_empty());
        }
    }

    /// ConcurrentSum totals are exact for any contribution multiset and
    /// any thread split.
    #[test]
    fn concurrent_sum_is_exact(
        values in proptest::collection::vec(1usize..1000, 1..24),
        threads in 1usize..5,
    ) {
        let sum = Arc::new(ConcurrentSum::<usize>::new(values.len()));
        let expect: usize = values.iter().sum();
        std::thread::scope(|s| {
            for chunk in values.chunks(values.len().div_ceil(threads)) {
                let sum = Arc::clone(&sum);
                s.spawn(move || {
                    for &v in chunk {
                        sum.add(v);
                    }
                });
            }
        });
        prop_assert_eq!(sum.take(), expect);
    }
}

/// FORCE under randomized racing: one thread plays the queue entry, one
/// plays the forcing forward task; whatever the interleaving, the
/// update runs exactly once and strictly before the subtask.
#[test]
fn force_races_preserve_update_before_subtask() {
    for round in 0..200 {
        let h = UpdateHandle::new();
        let update_done = Arc::new(AtomicUsize::new(0));
        let order_ok = Arc::new(AtomicUsize::new(0));
        {
            let u = Arc::clone(&update_done);
            h.arm(Box::new(move || {
                u.fetch_add(1, Ordering::SeqCst);
            }));
        }
        let start = Arc::new(Latch::new(1));
        let t1 = {
            let h = h.clone();
            let start = Arc::clone(&start);
            std::thread::spawn(move || {
                start.wait();
                h.queue_entry()()
            })
        };
        let t2 = {
            let h = h.clone();
            let start = Arc::clone(&start);
            let u = Arc::clone(&update_done);
            let ok = Arc::clone(&order_ok);
            std::thread::spawn(move || {
                start.wait();
                if round % 2 == 0 {
                    std::thread::yield_now();
                }
                h.force(Box::new(move || {
                    if u.load(Ordering::SeqCst) == 1 {
                        ok.fetch_add(1, Ordering::SeqCst);
                    }
                }));
            })
        };
        start.count_down();
        t1.join().unwrap();
        t2.join().unwrap();
        assert_eq!(update_done.load(Ordering::SeqCst), 1, "round {round}");
        assert_eq!(order_ok.load(Ordering::SeqCst), 1, "round {round}");
        assert!(h.is_idle());
    }
}

/// Hammering one latch from many threads opens it exactly once.
#[test]
fn latch_under_contention() {
    for _ in 0..50 {
        let n = 16;
        let l = Arc::new(Latch::new(n));
        let handles: Vec<_> = (0..n)
            .map(|_| {
                let l = Arc::clone(&l);
                std::thread::spawn(move || l.count_down())
            })
            .collect();
        l.wait();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(l.remaining(), 0);
    }
}
