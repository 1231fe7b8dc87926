//! The persistent fork-join pool the layer-at-a-time baseline runs on.
//!
//! [`ThreadPool`] is a pool of long-lived workers fed by the same
//! work-stealing queues as the `StealingExecutor`: a shared injector
//! plus one deque per worker. Workers pop their own deque LIFO, refill
//! from the injector and steal FIFO from siblings.
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
use parking_lot::{Condvar, Mutex};
use std::any::Any;
use std::cell::Cell;
use std::marker::PhantomData;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

/// A queued unit of work with its scope lifetime erased (sound because
/// a scope never returns before its last job finishes).
type Job = Box<dyn FnOnce() + Send>;

thread_local! {
    /// `(pool id, worker index)` when the current thread is a dedicated
    /// pool worker.
    static CURRENT_WORKER: Cell<Option<(u64, usize)>> = const { Cell::new(None) };
}

static POOL_IDS: AtomicU64 = AtomicU64::new(0);

struct PoolState {
    id: u64,
    /// The injector and one deque per dedicated worker.
    jobs: WorkQueues<Job>,
    /// Jobs queued and not yet claimed — a cheap emptiness probe for
    /// parked workers and scope owners.
    queued: AtomicUsize,
    shutdown: AtomicBool,
    /// Guards every sleep/wake transition: `queued` is bumped and jobs
    /// made visible while holding this lock, and sleepers (workers and
    /// scope owners) re-check state under it before waiting — so
    /// untimed condvar waits cannot miss a wakeup and idle threads
    /// never poll.
    sleep_lock: Mutex<()>,
    sleep_cvar: Condvar,
}

impl PoolState {
    /// The current thread's worker index in this pool, if it is one.
    fn local_index(&self) -> Option<usize> {
        match CURRENT_WORKER.get() {
            Some((pool, i)) if pool == self.id => Some(i),
            _ => None,
        }
    }

    /// Queues `job`: onto the current worker's own deque when called
    /// from inside this pool (the work-first rule), else the injector.
    fn push_job(&self, job: Job) {
        {
            // publish the job and its count under the sleep lock so a
            // thread that saw nothing and is about to wait cannot miss
            // it (it re-checks `queued` under the same lock)
            let _g = self.sleep_lock.lock();
            self.queued.fetch_add(1, Ordering::SeqCst);
            self.jobs.push(self.local_index(), job);
            // notify_all, not notify_one: the condvar carries both job
            // pushes and scope completions, so sleepers are
            // heterogeneous (workers, scope owners) and a single
            // wakeup could land on a sleeper waiting for the other
            // event. Waking the rest is nearly free — they re-check
            // and re-park, and a condvar with no waiters makes this a
            // no-op.
            self.sleep_cvar.notify_all();
        }
    }

    /// Claims one queued job: own deque (LIFO), injector, then steal
    /// FIFO from siblings.
    fn find_job(&self) -> Option<Job> {
        let job = self.jobs.pop(self.local_index());
        if job.is_some() {
            self.queued.fetch_sub(1, Ordering::SeqCst);
        }
        job
    }
}

fn worker_loop(state: Arc<PoolState>, index: usize) {
    CURRENT_WORKER.set(Some((state.id, index)));
    loop {
        if let Some(job) = state.find_job() {
            job();
            continue;
        }
        if state.shutdown.load(Ordering::Acquire) {
            break;
        }
        let mut g = state.sleep_lock.lock();
        // pushes and shutdown both flip their state and notify under
        // `sleep_lock`, so this re-check-then-wait cannot lose a
        // wakeup — the wait needs no timeout and idle workers cost
        // nothing
        if state.queued.load(Ordering::SeqCst) == 0 && !state.shutdown.load(Ordering::Acquire) {
            state.sleep_cvar.wait(&mut g);
        }
    }
    CURRENT_WORKER.set(None);
}

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
pub struct ThreadPool {
    state: Arc<PoolState>,
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl ThreadPool {
    /// A pool with `width >= 1` dedicated worker threads.
    pub fn with_workers(width: usize) -> Self {
        let state = Arc::new(PoolState {
            id: POOL_IDS.fetch_add(1, Ordering::Relaxed),
            jobs: WorkQueues::new(width.max(1)),
            queued: AtomicUsize::new(0),
            shutdown: AtomicBool::new(false),
            sleep_lock: Mutex::new(()),
            sleep_cvar: Condvar::new(),
        });
        let handles = (0..state.jobs.workers())
            .map(|i| {
                let state = Arc::clone(&state);
                std::thread::Builder::new()
                    .name(format!("znn-pool-{i}"))
                    .spawn(move || worker_loop(state, i))
                    .expect("failed to spawn pool worker")
            })
            .collect();
        ThreadPool { state, handles }
    }

    /// Number of dedicated worker threads.
    pub fn workers(&self) -> usize {
        self.state.jobs.workers()
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
            state: Arc::clone(&self.state),
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

impl Drop for ThreadPool {
    fn drop(&mut self) {
        self.state.shutdown.store(true, Ordering::Release);
        {
            // notify under the sleep lock so a worker between its
            // shutdown re-check and its wait cannot sleep through this
            let _g = self.state.sleep_lock.lock();
            self.state.sleep_cvar.notify_all();
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
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
    state: Arc<PoolState>,
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
        let job: Job =
            unsafe { std::mem::transmute::<Box<dyn FnOnce() + Send + 'scope>, Job>(job) };
        self.state.push_job(job);
    }

    fn finish_one(&self) {
        // clone the pool handle BEFORE the decrement: the moment
        // `pending` hits 0 the owner may observe it, return from
        // `scope`, and free this Scope — after the fetch_sub, `self`
        // must not be touched again
        let state = Arc::clone(&self.state);
        if self.pending.fetch_sub(1, Ordering::SeqCst) == 1 {
            // wake the owner (and anything else parked on the pool):
            // the lock pairs with the owner's check-then-wait, so the
            // terminal notification cannot be lost
            let _g = state.sleep_lock.lock();
            state.sleep_cvar.notify_all();
        }
    }

    /// The join barrier: executes pending pool jobs until every task
    /// spawned on this scope has finished. The owner parks on the
    /// pool's sleep condvar, which is notified both on job pushes
    /// (nested spawns it could help with) and on scope completion —
    /// no timed polling.
    fn complete(&self) {
        loop {
            if self.pending.load(Ordering::SeqCst) == 0 {
                break;
            }
            if let Some(job) = self.state.find_job() {
                job();
                continue;
            }
            let mut g = self.state.sleep_lock.lock();
            if self.pending.load(Ordering::SeqCst) == 0 {
                break;
            }
            if self.state.queued.load(Ordering::SeqCst) > 0 {
                continue; // helpable work appeared between find and lock
            }
            self.state.sleep_cvar.wait(&mut g);
        }
    }
}
