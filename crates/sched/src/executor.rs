//! The priority executor (paper §VI-B): the crate's one worker pool
//! over the global [`TaskQueue`].
//!
//! A predetermined number of workers repeatedly pick the
//! highest-priority task off the global queue and execute it. Tasks are
//! plain `FnOnce` closures; they may submit further tasks (that is how
//! the dependency graph unfolds at runtime — the task that completes a
//! node's sum enqueues the node's dependent tasks). The §X policies
//! (FIFO, LIFO) are the same pool over the same queue in another order.

use crate::queue::{QueuePolicy, TaskQueue};
use crate::worker::{Discipline, WorkerPool};
use parking_lot::Mutex;

/// A unit of work.
pub type Task = Box<dyn FnOnce() + Send + 'static>;

/// Anything that can run tasks at a priority — implemented by the
/// queue-based [`Executor`] and the work-stealing alternative.
pub trait Scheduler: Send + Sync {
    /// Enqueues a task; smaller priority runs earlier.
    fn submit(&self, priority: u64, task: Task);
    /// Scheduler statistics snapshot.
    fn stats(&self) -> SchedStats;
    /// Blocks until every submitted task has finished. Only meaningful
    /// when no external thread keeps submitting.
    fn wait_quiescent(&self);
}

/// Counters describing scheduler activity.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SchedStats {
    /// Tasks executed by workers.
    pub executed: u64,
    /// Maximum number of distinct priorities observed at submit time
    /// (the K of the heap-of-lists bound; 0 for non-priority policies).
    pub peak_distinct_priorities: u64,
    /// Tasks that panicked while executing. Workers catch the unwind,
    /// count it here, and keep serving — a panicking task must never
    /// take a worker thread (and with it the whole round protocol)
    /// down. Callers that need round-level containment (the engine)
    /// additionally wrap their task bodies; panics caught there do not
    /// reach this counter.
    pub task_panics: u64,
}

/// The global queue under its one mutex: one lock acquisition per push
/// and per pop.
impl Discipline for Mutex<TaskQueue<Task>> {
    fn push(&self, _local: Option<usize>, priority: u64, task: Task) -> usize {
        let mut q = self.lock();
        q.push(priority, task);
        q.distinct_priorities()
    }

    fn pop(&self, _local: Option<usize>) -> Option<Task> {
        self.lock().pop()
    }

    fn is_empty(&self) -> bool {
        self.lock().is_empty()
    }
}

/// The queue-based worker pool. Dropping the executor shuts the workers
/// down after the queue drains.
pub struct Executor(WorkerPool<Mutex<TaskQueue<Task>>>);

impl Executor {
    /// Starts `workers >= 1` worker threads with the given queue policy.
    pub fn new(workers: usize, policy: QueuePolicy) -> Self {
        assert!(workers >= 1, "an executor needs at least one worker");
        let queue = Mutex::new(TaskQueue::new(policy));
        Executor(WorkerPool::new(workers, queue, "znn-worker"))
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.0.workers()
    }
}

impl Scheduler for Executor {
    fn submit(&self, priority: u64, task: Task) {
        self.0.submit(priority, task);
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
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;
    use std::sync::atomic::AtomicU64 as TestCounter;

    #[test]
    fn executes_every_task_once() {
        let ex = Executor::new(4, QueuePolicy::Priority);
        let counter = Arc::new(TestCounter::new(0));
        let latch = Arc::new(Latch::new(100));
        for i in 0..100u64 {
            let counter = Arc::clone(&counter);
            let latch = Arc::clone(&latch);
            ex.submit(i % 7, Box::new(move || {
                counter.fetch_add(1, Ordering::SeqCst);
                latch.count_down();
            }));
        }
        latch.wait();
        assert_eq!(counter.load(Ordering::SeqCst), 100);
        // the latch opens inside the last task, before the worker
        // bumps `executed` — quiesce before reading the counter
        ex.wait_quiescent();
        assert_eq!(ex.stats().executed, 100);
    }

    #[test]
    fn single_worker_respects_priority_order() {
        let ex = Executor::new(1, QueuePolicy::Priority);
        let order = Arc::new(Mutex::new(Vec::new()));
        let gate = Arc::new(Latch::new(1));
        let done = Arc::new(Latch::new(4));
        // block the worker so all submissions land before execution
        {
            let gate = Arc::clone(&gate);
            ex.submit(0, Box::new(move || gate.wait()));
        }
        for (p, name) in [(5u64, "low"), (1, "high"), (3, "mid"), (crate::UPDATE_PRIORITY, "update")] {
            let order = Arc::clone(&order);
            let done = Arc::clone(&done);
            ex.submit(p, Box::new(move || {
                order.lock().push(name);
                done.count_down();
            }));
        }
        gate.count_down();
        done.wait();
        assert_eq!(*order.lock(), vec!["high", "mid", "low", "update"]);
    }

    #[test]
    fn tasks_can_submit_tasks() {
        let ex = Arc::new(Executor::new(2, QueuePolicy::Priority));
        let latch = Arc::new(Latch::new(10));
        let ex2 = Arc::clone(&ex);
        let latch2 = Arc::clone(&latch);
        ex.submit(0, Box::new(move || {
            for _ in 0..10 {
                let latch = Arc::clone(&latch2);
                ex2.submit(1, Box::new(move || latch.count_down()));
            }
        }));
        latch.wait();
    }

    #[test]
    fn wait_quiescent_waits_for_running_tasks() {
        let ex = Executor::new(2, QueuePolicy::Fifo);
        let flag = Arc::new(AtomicBool::new(false));
        let flag2 = Arc::clone(&flag);
        ex.submit(0, Box::new(move || {
            std::thread::sleep(std::time::Duration::from_millis(30));
            flag2.store(true, Ordering::SeqCst);
        }));
        ex.wait_quiescent();
        assert!(flag.load(Ordering::SeqCst));
    }

    #[test]
    fn drop_joins_workers_cleanly() {
        let ex = Executor::new(3, QueuePolicy::Lifo);
        let latch = Arc::new(Latch::new(5));
        for _ in 0..5 {
            let latch = Arc::clone(&latch);
            ex.submit(0, Box::new(move || latch.count_down()));
        }
        latch.wait();
        drop(ex); // must not hang
    }

    #[test]
    fn panicking_task_is_counted_and_workers_survive() {
        let ex = Executor::new(2, QueuePolicy::Priority);
        let done = Arc::new(Latch::new(20));
        for i in 0..20u64 {
            let done = Arc::clone(&done);
            if i % 5 == 0 {
                ex.submit(0, Box::new(move || {
                    done.count_down();
                    panic!("injected task panic");
                }));
            } else {
                ex.submit(0, Box::new(move || done.count_down()));
            }
        }
        // all 20 ran despite 4 panics — the workers survived
        done.wait();
        ex.wait_quiescent();
        let stats = ex.stats();
        assert_eq!(stats.executed, 20);
        assert_eq!(stats.task_panics, 4, "every panic must be counted");
        // the pool still serves tasks after the panics
        let after = Arc::new(Latch::new(1));
        let a2 = Arc::clone(&after);
        ex.submit(0, Box::new(move || a2.count_down()));
        after.wait();
    }

    #[test]
    fn stats_track_peaks() {
        let ex = Executor::new(1, QueuePolicy::Priority);
        let gate = Arc::new(Latch::new(1));
        let done = Arc::new(Latch::new(6));
        {
            let gate = Arc::clone(&gate);
            ex.submit(0, Box::new(move || gate.wait()));
        }
        for i in 0..6u64 {
            let done = Arc::clone(&done);
            ex.submit(i % 3, Box::new(move || done.count_down()));
        }
        let stats = ex.stats();
        assert!(stats.peak_distinct_priorities >= 3);
        gate.count_down();
        done.wait();
    }
}
