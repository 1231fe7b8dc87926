//! The persistent fork-join pool the layer-at-a-time baseline runs on.
//!
//! [`ThreadPool`] is the crate's one worker pool over the work-stealing
//! queues: a shared injector plus one deque per worker. Workers pop
//! their own deque LIFO, refill from the injector and steal FIFO from
//! siblings. The same pool behind [`Scheduler`](crate::Scheduler) is
//! the [`StealingExecutor`](crate::StealingExecutor).
//! [`ThreadPool::scope`] (and the free [`scope`] on the [global
//! pool](global_pool)) is the structured fork-join primitive: it
//! returns only after every spawned task has finished, and tasks may
//! borrow from the enclosing stack frame. No OS thread is ever spawned
//! per `scope` call.
//!
//! # Joining without deadlock
//!
//! A thread that reaches the end of a `scope` does not park and hope:
//! while its scope has unfinished tasks it **executes pending pool
//! jobs itself** (its own deque first if it is a pool worker, then the
//! injector, then siblings). Nested scopes therefore complete even on
//! a pool with a single worker.

use crate::deque::WorkQueues;
use crate::executor::Task;
use crate::worker::{Shared, Sleeper, WorkerPool};
use parking_lot::Mutex;
use std::any::Any;
use std::marker::PhantomData;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

/// A persistent fork-join worker pool. See the [module docs](self) for
/// the execution model.
///
/// # Example
///
/// ```
/// use znn_sched::ThreadPool;
///
/// let pool = ThreadPool::with_workers(2);
/// let mut parts = [0u64; 4];
/// pool.scope(|s| {
///     for (i, p) in parts.iter_mut().enumerate() {
///         // tasks may borrow from the enclosing stack frame; the
///         // scope joins them all before returning
///         s.spawn(move |_| *p = i as u64 + 1);
///     }
/// });
/// assert_eq!(parts.iter().sum::<u64>(), 10);
/// ```
pub struct ThreadPool(pub(crate) WorkerPool<WorkQueues<Task>>);

impl ThreadPool {
    /// A pool with `width >= 1` dedicated worker threads.
    pub fn with_workers(width: usize) -> Self {
        let width = width.max(1);
        ThreadPool(WorkerPool::new(width, WorkQueues::new(width), "znn-pool"))
    }

    /// Number of dedicated worker threads.
    pub fn workers(&self) -> usize {
        self.0.workers()
    }

    /// Creates a fork-join scope on this pool: `op` may spawn tasks
    /// that borrow from the caller's stack; every task is joined
    /// before `scope` returns (a panicking task propagates here). The
    /// calling thread executes pending jobs while it waits, so nested
    /// scopes cannot deadlock regardless of the pool width.
    pub fn scope<'scope, OP, R>(&self, op: OP) -> R
    where
        OP: FnOnce(&Scope<'scope>) -> R,
    {
        let scope = Scope {
            state: Arc::clone(&self.0.shared),
            pending: AtomicUsize::new(0),
            panic: Mutex::new(None),
            _marker: PhantomData,
        };
        let result = catch_unwind(AssertUnwindSafe(|| op(&scope)));
        // join before unwinding: spawned tasks may still borrow the frame
        scope.complete();
        match result {
            Ok(r) => {
                if let Some(p) = scope.panic.lock().take() {
                    resume_unwind(p);
                }
                r
            }
            Err(p) => resume_unwind(p),
        }
    }
}

/// The process-wide default pool (`available_parallelism` workers),
/// started on first use. The free [`scope`] runs here.
pub fn global_pool() -> &'static ThreadPool {
    static GLOBAL: OnceLock<ThreadPool> = OnceLock::new();
    GLOBAL.get_or_init(|| {
        let host = std::thread::available_parallelism().map_or(1, |v| v.get());
        ThreadPool::with_workers(host)
    })
}

/// Creates a fork-join scope on the [global pool](global_pool): `op`
/// may spawn tasks that borrow from the caller's stack; every task is
/// joined before `scope` returns (a panicking task propagates its
/// panic here).
///
/// # Example
///
/// ```
/// let (mut lo, mut hi) = (0u32, 0u32);
/// znn_sched::scope(|s| {
///     s.spawn(|_| lo = (0..50).sum());
///     s.spawn(|_| hi = (50..100).sum());
/// });
/// assert_eq!(lo + hi, (0..100).sum());
/// ```
pub fn scope<'scope, OP, R>(op: OP) -> R
where
    OP: FnOnce(&Scope<'scope>) -> R,
{
    global_pool().scope(op)
}

/// A fork-join scope: tasks spawned on it may borrow anything that
/// outlives the [`ThreadPool::scope`] call, and all of them complete
/// before that call returns.
pub struct Scope<'scope> {
    state: Arc<Shared<WorkQueues<Task>>>,
    /// Spawned-but-unfinished task count; the owner blocks until 0.
    pending: AtomicUsize,
    panic: Mutex<Option<Box<dyn Any + Send + 'static>>>,
    /// Invariant over `'scope`: a task may neither shorten nor extend
    /// the borrows it was spawned with.
    _marker: PhantomData<&'scope mut &'scope ()>,
}

/// A `*const Scope` that may cross threads.
struct ScopePtr(*const ());

// SAFETY: the pointer is only dereferenced by a job of the scope it
// points to, and the scope owner does not return (so the `Scope` is not
// freed) before `pending` reaches zero, i.e. before every such job has
// finished. The pointee is only read through `&Scope`, and all of
// `Scope`'s interior mutability is thread-safe (atomics and a mutex),
// so using it from another thread is sound.
unsafe impl Send for ScopePtr {}

impl ScopePtr {
    /// The wrapped pointer. A method (rather than field access) so
    /// closures capture the `Send` wrapper, not the bare pointer —
    /// edition-2021 closures capture individual fields otherwise.
    fn get(&self) -> *const () {
        self.0
    }
}

impl<'scope> Scope<'scope> {
    /// Runs `body` on a pool worker (or the waiting scope owner). The
    /// closure receives the scope again so it can spawn nested tasks
    /// (`s.spawn(|s| ...)`).
    pub fn spawn<F>(&self, body: F)
    where
        F: FnOnce(&Scope<'scope>) + Send + 'scope,
    {
        self.pending.fetch_add(1, Ordering::SeqCst);
        let ptr = ScopePtr(self as *const Scope<'scope> as *const ());
        let job: Box<dyn FnOnce() + Send + 'scope> = Box::new(move || {
            // SAFETY: `ptr` was made from `&self` above, and the scope
            // owner does not return before `pending` (bumped above, and
            // only decremented by `finish_one` after this use) reaches
            // zero — so the Scope and everything `'scope`-borrowed are
            // alive for the whole call.
            let scope: &Scope<'scope> = unsafe { &*(ptr.get() as *const Scope<'scope>) };
            if let Err(p) = catch_unwind(AssertUnwindSafe(|| body(scope))) {
                let mut slot = scope.panic.lock();
                if slot.is_none() {
                    *slot = Some(p);
                }
            }
            scope.finish_one();
        });
        // SAFETY: only the lifetime bound changes (`'scope` → `'static`);
        // the two box types have the same layout. Erasing `'scope` is
        // sound because the job cannot outlive it: it either runs
        // before `pending` returns to zero or the scope owner keeps
        // waiting in `complete`, which every path out of
        // `ThreadPool::scope` passes through, unwinding included.
        let job: Task =
            unsafe { std::mem::transmute::<Box<dyn FnOnce() + Send + 'scope>, Task>(job) };
        self.state.submit(0, job);
    }

    fn finish_one(&self) {
        // clone the pool handle BEFORE the decrement: the moment
        // `pending` hits 0 the owner may observe it, return from
        // `scope`, and free this Scope — after the fetch_sub, `self`
        // must not be touched again
        let state = Arc::clone(&self.state);
        if self.pending.fetch_sub(1, Ordering::SeqCst) == 1 {
            state.wake(&[Sleeper::Owner]);
        }
    }

    /// The join barrier: executes pending pool jobs until every task
    /// spawned on this scope has finished. Between jobs the owner parks,
    /// woken by job pushes (nested spawns it could help with) and by
    /// this scope's completion.
    fn complete(&self) {
        let state = &self.state;
        let done = || self.pending.load(Ordering::SeqCst) == 0;
        while !done() {
            match state.pop() {
                Some(job) => state.run(job),
                None => state.park(Sleeper::Owner, || done() || !state.is_empty()),
            }
        }
    }
}
