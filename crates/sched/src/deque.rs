//! The work-stealing queue discipline of the [worker pool](crate::worker):
//! the fork-join [`ThreadPool`](crate::ThreadPool), which is also the
//! [`StealingExecutor`](crate::StealingExecutor), runs on it.
//!
//! One FIFO injector for submissions from outside, plus one deque per
//! worker. A worker pushes onto and pops from the back of its own deque
//! (LIFO: depth-first, cache-friendly); everyone else takes from the
//! front (FIFO: the oldest, usually largest, piece of work). Each queue
//! is a mutex around a `VecDeque`, held for one push or pop.

use crate::executor::Task;
use crate::worker::Discipline;
use parking_lot::Mutex;
use std::collections::VecDeque;

pub(crate) struct WorkQueues<T> {
    /// Submissions from threads that are not workers, FIFO.
    injector: Mutex<VecDeque<T>>,
    /// One deque per worker.
    locals: Vec<Mutex<VecDeque<T>>>,
}

impl<T> WorkQueues<T> {
    /// An injector plus `workers` empty deques.
    pub(crate) fn new(workers: usize) -> Self {
        WorkQueues {
            injector: Mutex::new(VecDeque::new()),
            locals: (0..workers).map(|_| Mutex::new(VecDeque::new())).collect(),
        }
    }

    /// Queues `item` on worker `local`'s own deque, or on the injector
    /// when the caller is not a worker.
    pub(crate) fn push(&self, local: Option<usize>, item: T) {
        match local {
            Some(i) => self.locals[i].lock().push_back(item),
            None => self.injector.lock().push_back(item),
        }
    }

    /// Claims one item for worker `local` (or a non-worker): the newest
    /// of its own deque, else the oldest of the injector, else the
    /// oldest of a sibling's deque.
    pub(crate) fn pop(&self, local: Option<usize>) -> Option<T> {
        if let Some(item) = local.and_then(|i| self.locals[i].lock().pop_back()) {
            return Some(item);
        }
        if let Some(item) = self.injector.lock().pop_front() {
            return Some(item);
        }
        self.locals
            .iter()
            .enumerate()
            .filter(|&(i, _)| local != Some(i))
            .find_map(|(_, deque)| deque.lock().pop_front())
    }
}

/// Priorities are ignored — that is precisely what the §X ablation
/// probes.
impl Discipline for WorkQueues<Task> {
    fn push(&self, local: Option<usize>, _priority: u64, task: Task) -> usize {
        WorkQueues::push(self, local, task);
        0
    }

    fn pop(&self, local: Option<usize>) -> Option<Task> {
        WorkQueues::pop(self, local)
    }

    fn is_empty(&self) -> bool {
        self.injector.lock().is_empty() && self.locals.iter().all(|d| d.lock().is_empty())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn owner_is_lifo_thief_is_fifo() {
        let q = WorkQueues::new(2);
        q.push(Some(0), 1);
        q.push(Some(0), 2);
        q.push(Some(0), 3);
        assert_eq!(q.pop(Some(1)), Some(1), "a thief takes the oldest");
        assert_eq!(q.pop(Some(0)), Some(3), "the owner takes the newest");
        assert_eq!(q.pop(Some(0)), Some(2));
        assert_eq!(q.pop(Some(0)), None);
        assert_eq!(q.pop(Some(1)), None);
    }

    #[test]
    fn injector_is_fifo() {
        let q = WorkQueues::new(1);
        q.push(None, "a");
        q.push(None, "b");
        q.push(Some(0), "own");
        // a worker drains its own deque before the injector
        assert_eq!(q.pop(Some(0)), Some("own"));
        assert_eq!(q.pop(Some(0)), Some("a"));
        assert_eq!(q.pop(None), Some("b"));
        assert_eq!(q.pop(None), None);
    }
}
