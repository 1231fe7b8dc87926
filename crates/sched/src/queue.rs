//! The global task queue (paper §VII-A) and the §X policy alternatives.
//!
//! The production queue is a **heap of lists**: a sorted map from
//! priority to a FIFO list of tasks. Insertion and removal touch the map
//! in O(log K), where K is the number of *distinct priorities* currently
//! present — much smaller than the number of queued tasks N for wide
//! networks, where whole layers share a priority.

use std::collections::{BTreeMap, VecDeque};

/// Ordering policy for the global queue (§VI-A default, §X alternatives).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum QueuePolicy {
    /// The paper's priority scheduler: smaller priority value first,
    /// FIFO among equals. Backed by the heap-of-lists.
    #[default]
    Priority,
    /// First-in first-out, ignoring priorities (§X).
    Fifo,
    /// Last-in first-out, ignoring priorities (§X).
    Lifo,
}

/// A non-thread-safe priority multi-queue; the executor's worker pool
/// holds it under one mutex. Generic in the task type so tests can use
/// integers.
pub struct TaskQueue<T> {
    policy: QueuePolicy,
    lists: BTreeMap<u64, VecDeque<T>>,
    fifo: VecDeque<(u64, T)>,
    len: usize,
}

impl<T> TaskQueue<T> {
    /// An empty queue with the given policy.
    pub fn new(policy: QueuePolicy) -> Self {
        TaskQueue {
            policy,
            lists: BTreeMap::new(),
            fifo: VecDeque::new(),
            len: 0,
        }
    }

    /// Number of queued tasks.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no tasks are queued.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of distinct priority values currently present — the K of
    /// the heap-of-lists complexity bound (meaningful for
    /// [`QueuePolicy::Priority`]).
    pub(crate) fn distinct_priorities(&self) -> usize {
        self.lists.len()
    }

    /// Enqueues `task` at `priority` (smaller runs earlier).
    pub fn push(&mut self, priority: u64, task: T) {
        self.len += 1;
        match self.policy {
            QueuePolicy::Priority => {
                self.lists.entry(priority).or_default().push_back(task);
            }
            QueuePolicy::Fifo | QueuePolicy::Lifo => {
                self.fifo.push_back((priority, task));
            }
        }
    }

    /// Removes and returns the next task per the policy.
    pub fn pop(&mut self) -> Option<T> {
        let out = match self.policy {
            QueuePolicy::Priority => {
                let (&p, _) = self.lists.iter().next()?;
                let list = self.lists.get_mut(&p).expect("key just observed");
                let task = list.pop_front();
                if list.is_empty() {
                    self.lists.remove(&p);
                }
                task
            }
            QueuePolicy::Fifo => self.fifo.pop_front().map(|(_, t)| t),
            QueuePolicy::Lifo => self.fifo.pop_back().map(|(_, t)| t),
        };
        if out.is_some() {
            self.len -= 1;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn priority_pops_smallest_first_fifo_within() {
        let mut q = TaskQueue::new(QueuePolicy::Priority);
        q.push(5, "c1");
        q.push(1, "a");
        q.push(5, "c2");
        q.push(3, "b");
        assert_eq!(q.distinct_priorities(), 3);
        assert_eq!(q.pop(), Some("a"));
        assert_eq!(q.pop(), Some("b"));
        assert_eq!(q.pop(), Some("c1"));
        assert_eq!(q.pop(), Some("c2"));
        assert_eq!(q.pop(), None);
        assert!(q.is_empty());
    }

    #[test]
    fn fifo_ignores_priorities() {
        let mut q = TaskQueue::new(QueuePolicy::Fifo);
        q.push(9, 1);
        q.push(1, 2);
        q.push(5, 3);
        assert_eq!((q.pop(), q.pop(), q.pop()), (Some(1), Some(2), Some(3)));
    }

    #[test]
    fn lifo_reverses() {
        let mut q = TaskQueue::new(QueuePolicy::Lifo);
        q.push(9, 1);
        q.push(1, 2);
        q.push(5, 3);
        assert_eq!((q.pop(), q.pop(), q.pop()), (Some(3), Some(2), Some(1)));
    }

    #[test]
    fn distinct_priorities_shrinks_as_lists_drain() {
        let mut q = TaskQueue::new(QueuePolicy::Priority);
        for i in 0..100 {
            q.push(i % 4, i);
        }
        assert_eq!(q.distinct_priorities(), 4);
        assert_eq!(q.len(), 100);
        for _ in 0..25 {
            q.pop();
        }
        assert_eq!(q.distinct_priorities(), 3);
    }

    #[test]
    fn update_priority_is_last() {
        let mut q = TaskQueue::new(QueuePolicy::Priority);
        q.push(crate::UPDATE_PRIORITY, "update");
        q.push(0, "forward");
        q.push(7, "backward");
        assert_eq!(q.pop(), Some("forward"));
        assert_eq!(q.pop(), Some("backward"));
        assert_eq!(q.pop(), Some("update"));
    }
}
