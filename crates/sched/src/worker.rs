//! The one worker pool behind every scheduler in this crate (paper §VI-B).
//!
//! A fixed set of workers repeatedly claims a queued task and runs it to
//! completion. The paper's §X alternatives change only *which* task a
//! worker claims, so the queue [`Discipline`] is the one thing that
//! varies:
//!
//! * the heap-of-lists [`TaskQueue`](crate::queue::TaskQueue) under one
//!   mutex — the [`Executor`](crate::Executor), for
//!   [`QueuePolicy`](crate::QueuePolicy) `Priority`, `Fifo` and `Lifo`;
//! * [`WorkQueues`](crate::deque::WorkQueues), an injector plus one
//!   deque per worker — the fork-join [`ThreadPool`](crate::ThreadPool),
//!   which is also the work-stealing
//!   [`StealingExecutor`](crate::StealingExecutor).
//!
//! Everything else lives here once: the threads, the worker loop, the
//! park/wake protocol, per-task panic containment, the
//! `submitted`/`executed` counters and the quiescence wait, and shutdown
//! (drain the queue, then join) on drop.
//!
//! # Parking
//!
//! Three kinds of thread park, each on its own condvar under one
//! `sleep` mutex (see [`Sleeper`]): workers, scope owners and
//! quiescence waiters. A sleeper takes `sleep`, counts itself, fences,
//! and re-checks its condition before the untimed wait. A waker changes
//! the state, fences, and reads the counts of the classes the change
//! concerns; only for a class with someone parked does it take `sleep`
//! and notify. The two `SeqCst` fences order the sleeper's count before
//! its re-check and the waker's change before its read, so either the
//! re-check sees the change or the waker sees the sleeper — and since a
//! counted sleeper holds `sleep` until it waits, the notify cannot land
//! between its re-check and its wait. No wakeup is lost, no wait needs
//! a timeout, and a submit with no one parked makes no condvar call.
//! Every woken worker claims tasks until the queue is empty before it
//! parks again, so one `notify_one` per submit suffices for workers.

use crate::executor::{SchedStats, Task};
use parking_lot::{Condvar, Mutex};
use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{fence, AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Where queued tasks wait: the only thing that differs between the
/// schedulers built on [`WorkerPool`].
pub(crate) trait Discipline: Send + Sync + 'static {
    /// Queues `task` at `priority`; `local` is the calling thread's
    /// worker index in this pool. Returns the number of distinct
    /// priorities now queued (0 for a discipline that ignores them).
    fn push(&self, local: Option<usize>, priority: u64, task: Task) -> usize;
    /// Claims the next task for worker `local` (or for a helping
    /// non-worker).
    fn pop(&self, local: Option<usize>) -> Option<Task>;
    /// True when no task is queued.
    fn is_empty(&self) -> bool;
}

thread_local! {
    /// `(pool id, worker index)` when the current thread is a worker.
    static CURRENT: Cell<Option<(u64, usize)>> = const { Cell::new(None) };
}

static POOL_IDS: AtomicU64 = AtomicU64::new(0);

/// The state the workers and every handle to the pool share.
pub(crate) struct Shared<Q> {
    id: u64,
    queue: Q,
    /// Counted before a task becomes visible, so `executed` never
    /// overtakes it.
    submitted: AtomicU64,
    executed: AtomicU64,
    task_panics: AtomicU64,
    peak_priorities: AtomicU64,
    shutdown: AtomicBool,
    /// Sleepers parked per [`Sleeper`] class, and their condvars.
    parked: [AtomicUsize; 3],
    wakeups: [Condvar; 3],
    sleep: Mutex<()>,
}

/// Who is parking, and so which changes must wake it.
#[derive(Clone, Copy)]
pub(crate) enum Sleeper {
    /// A worker: one is woken per submitted task.
    Worker,
    /// A scope owner: woken by every submit (it helps run jobs) and by
    /// its scope's completion.
    Owner,
    /// A `wait_quiescent` caller: woken when the last task finishes.
    Quiescer,
}

impl<Q: Discipline> Shared<Q> {
    /// The current thread's worker index in this pool, if it is one.
    fn local(&self) -> Option<usize> {
        match CURRENT.get() {
            Some((id, i)) if id == self.id => Some(i),
            _ => None,
        }
    }

    /// Queues `task` (smaller priority runs earlier, where the
    /// discipline orders) and wakes one parked worker and every parked
    /// scope owner.
    pub(crate) fn submit(&self, priority: u64, task: Task) {
        self.submitted.fetch_add(1, Ordering::SeqCst);
        let k = self.queue.push(self.local(), priority, task) as u64;
        if k > self.peak_priorities.load(Ordering::Relaxed) {
            self.peak_priorities.fetch_max(k, Ordering::Relaxed);
        }
        self.wake(&[Sleeper::Worker, Sleeper::Owner]);
    }

    /// Claims a queued task for the calling thread.
    pub(crate) fn pop(&self) -> Option<Task> {
        self.queue.pop(self.local())
    }

    /// True when no task is queued.
    pub(crate) fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// Runs a claimed task. A panicking task fails itself, not the
    /// thread: a dead worker would strand the queue and hang every
    /// later round. The panic is counted and `executed` advances either
    /// way.
    pub(crate) fn run(&self, task: Task) {
        if catch_unwind(AssertUnwindSafe(task)).is_err() {
            self.task_panics.fetch_add(1, Ordering::Relaxed);
        }
        let done = self.executed.fetch_add(1, Ordering::SeqCst) + 1;
        if done == self.submitted.load(Ordering::SeqCst) {
            self.wake(&[Sleeper::Quiescer]);
        }
    }

    /// Wakes one parked worker or every parked owner or quiescer, per
    /// class in `classes`, taking `sleep` only for a class that has
    /// someone parked.
    pub(crate) fn wake(&self, classes: &[Sleeper]) {
        // pairs with the fence in `park`
        fence(Ordering::SeqCst);
        for &class in classes {
            if self.parked[class as usize].load(Ordering::Relaxed) > 0 {
                let _g = self.sleep.lock();
                match class {
                    Sleeper::Worker => self.wakeups[class as usize].notify_one(),
                    _ => self.wakeups[class as usize].notify_all(),
                }
            }
        }
    }

    /// Parks as `class` unless `ready()` holds. Returns after a wakeup,
    /// which may be spurious: callers re-check.
    pub(crate) fn park(&self, class: Sleeper, ready: impl Fn() -> bool) {
        let parked = &self.parked[class as usize];
        let mut g = self.sleep.lock();
        parked.fetch_add(1, Ordering::SeqCst);
        // pairs with the fence in `wake`
        fence(Ordering::SeqCst);
        if !ready() {
            self.wakeups[class as usize].wait(&mut g);
        }
        parked.fetch_sub(1, Ordering::SeqCst);
    }

    /// Blocks until every submitted task has finished. Only meaningful
    /// when no outside thread keeps submitting.
    pub(crate) fn wait_quiescent(&self) {
        // `executed` first: every finished task it counts was counted
        // in `submitted` before, so equality means none is outstanding
        let quiet =
            || self.executed.load(Ordering::SeqCst) == self.submitted.load(Ordering::SeqCst);
        while !quiet() {
            self.park(Sleeper::Quiescer, quiet);
        }
    }

    pub(crate) fn stats(&self) -> SchedStats {
        SchedStats {
            executed: self.executed.load(Ordering::SeqCst),
            peak_distinct_priorities: self.peak_priorities.load(Ordering::Relaxed),
            task_panics: self.task_panics.load(Ordering::Relaxed),
        }
    }
}

fn worker_loop<Q: Discipline>(shared: Arc<Shared<Q>>, index: usize) {
    CURRENT.set(Some((shared.id, index)));
    loop {
        if let Some(task) = shared.queue.pop(Some(index)) {
            shared.run(task);
            continue;
        }
        // the queue drains before shutdown is honoured
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        shared.park(Sleeper::Worker, || {
            shared.shutdown.load(Ordering::SeqCst) || !shared.queue.is_empty()
        });
    }
    CURRENT.set(None);
}

/// `workers` threads serving one queue discipline. Dropping the pool
/// lets the workers drain the queue, then joins them.
pub(crate) struct WorkerPool<Q: Discipline> {
    pub(crate) shared: Arc<Shared<Q>>,
    handles: Vec<JoinHandle<()>>,
}

impl<Q: Discipline> WorkerPool<Q> {
    /// Starts `workers` threads named `{name}-{i}` over `queue`.
    pub(crate) fn new(workers: usize, queue: Q, name: &str) -> Self {
        let shared = Arc::new(Shared {
            id: POOL_IDS.fetch_add(1, Ordering::Relaxed),
            queue,
            submitted: AtomicU64::new(0),
            executed: AtomicU64::new(0),
            task_panics: AtomicU64::new(0),
            peak_priorities: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
            parked: Default::default(),
            wakeups: Default::default(),
            sleep: Mutex::new(()),
        });
        let handles = (0..workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("{name}-{i}"))
                    .spawn(move || worker_loop(shared, i))
                    .expect("failed to spawn worker")
            })
            .collect();
        WorkerPool { shared, handles }
    }

    /// Number of worker threads.
    pub(crate) fn workers(&self) -> usize {
        self.handles.len()
    }
}

impl<Q: Discipline> std::ops::Deref for WorkerPool<Q> {
    type Target = Shared<Q>;

    fn deref(&self) -> &Shared<Q> {
        &self.shared
    }
}

impl<Q: Discipline> Drop for WorkerPool<Q> {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        {
            // under `sleep`: a worker between its shutdown re-check and
            // its wait would otherwise sleep through this
            let _g = self.shared.sleep.lock();
            self.shared.wakeups[Sleeper::Worker as usize].notify_all();
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}
