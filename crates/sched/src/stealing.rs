//! The work-stealing alternative scheduler (paper §X).
//!
//! "The repository also provides alternative scheduling strategies such
//! as simple FIFO or LIFO as well as some more complex ones based on
//! work stealing \[22\]. The alternative scheduling strategies achieve
//! noticeably lower scalability than the one proposed in the paper for
//! most networks." — this module provides the work-stealing one so the
//! §X ablation can measure that claim.
//!
//! It is the fork-join [`ThreadPool`] behind the [`Scheduler`]
//! interface: the crate's one worker pool over the work-stealing
//! queues. External submissions go to the injector, a worker's own
//! submissions to its deque (the work-first rule); a worker pops its
//! own deque LIFO, refills from the injector, and steals FIFO from
//! siblings. Priorities are ignored — that is precisely the property
//! the ablation probes.

use crate::executor::{SchedStats, Scheduler, Task};
use crate::pool::ThreadPool;

/// A work-stealing executor with the same [`Scheduler`] interface as
/// the priority [`crate::Executor`].
pub type StealingExecutor = ThreadPool;

impl ThreadPool {
    /// Starts `workers >= 1` stealing workers.
    pub fn new(workers: usize) -> Self {
        assert!(workers >= 1, "an executor needs at least one worker");
        ThreadPool::with_workers(workers)
    }
}

impl Scheduler for ThreadPool {
    fn submit(&self, _priority: u64, task: Task) {
        self.0.submit(0, task);
    }

    fn stats(&self) -> SchedStats {
        self.0.stats()
    }

    fn wait_quiescent(&self) {
        self.0.wait_quiescent();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Latch;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    #[test]
    fn executes_every_task_once() {
        let ex = StealingExecutor::new(4);
        let counter = Arc::new(AtomicUsize::new(0));
        let latch = Arc::new(Latch::new(200));
        for _ in 0..200 {
            let counter = Arc::clone(&counter);
            let latch = Arc::clone(&latch);
            ex.submit(0, Box::new(move || {
                counter.fetch_add(1, Ordering::SeqCst);
                latch.count_down();
            }));
        }
        latch.wait();
        assert_eq!(counter.load(Ordering::SeqCst), 200);
        // the latch opens inside each task, before the worker bumps
        // `executed` — quiesce before reading the counter
        ex.wait_quiescent();
        assert_eq!(ex.stats().executed, 200);
    }

    #[test]
    fn workers_submit_to_their_local_deque() {
        let ex = Arc::new(StealingExecutor::new(2));
        let latch = Arc::new(Latch::new(64));
        let ex2 = Arc::clone(&ex);
        let latch2 = Arc::clone(&latch);
        // recursive fan-out from inside workers exercises local pushes
        fn fan(ex: Arc<StealingExecutor>, latch: Arc<Latch>, depth: usize) {
            latch.count_down();
            if depth == 0 {
                return;
            }
            let e = Arc::clone(&ex);
            ex.submit(0, Box::new(move || fan(e, latch, depth - 1)));
        }
        // a chain of 64 tasks, each submitting the next
        ex.submit(0, Box::new(move || fan(ex2, latch2, 63)));
        latch.wait();
    }

    #[test]
    fn panicking_task_is_counted_and_workers_survive() {
        let ex = StealingExecutor::new(2);
        let done = Arc::new(Latch::new(10));
        for i in 0..10 {
            let done = Arc::clone(&done);
            if i % 3 == 0 {
                ex.submit(0, Box::new(move || {
                    done.count_down();
                    panic!("injected stealing-task panic");
                }));
            } else {
                ex.submit(0, Box::new(move || done.count_down()));
            }
        }
        done.wait();
        ex.wait_quiescent();
        let stats = ex.stats();
        assert_eq!(stats.executed, 10);
        assert_eq!(stats.task_panics, 4);
    }

    #[test]
    fn drop_joins_cleanly() {
        let ex = StealingExecutor::new(3);
        let latch = Arc::new(Latch::new(10));
        for _ in 0..10 {
            let latch = Arc::clone(&latch);
            ex.submit(0, Box::new(move || latch.count_down()));
        }
        latch.wait();
        drop(ex);
    }

    #[test]
    fn two_pools_do_not_cross_contaminate() {
        let a = Arc::new(StealingExecutor::new(1));
        let b = Arc::new(StealingExecutor::new(1));
        let latch = Arc::new(Latch::new(2));
        // submit to b from inside a worker of a: must go to b's injector,
        // not a's local deque
        let b2 = Arc::clone(&b);
        let l2 = Arc::clone(&latch);
        a.submit(0, Box::new(move || {
            let l3 = Arc::clone(&l2);
            b2.submit(0, Box::new(move || l3.count_down()));
            l2.count_down();
        }));
        latch.wait();
        // quiesce both pools: the latch opens inside the tasks,
        // before the workers bump their `executed` counters
        a.wait_quiescent();
        b.wait_quiescent();
        assert!(a.stats().executed + b.stats().executed >= 2);
    }
}
