//! Deadlock regression tests for worker donation: scheduler tasks that
//! open fork-join scopes (an FFT inside an executor task), including
//! scopes nested inside scopes, must complete on donor-only pools with
//! 1 and 2 scheduler workers. The no-deadlock argument is that a
//! thread waiting on a scope executes pending scope jobs itself, so
//! progress never depends on another thread being free.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;
use znn_sched::{Executor, Latch, QueuePolicy, Scheduler, StealingExecutor, ThreadPool};

/// Runs `f` on a fresh thread and fails the test instead of hanging if
/// it does not finish in time — a deadlock shows up as a clean panic.
fn must_finish(name: &str, f: impl FnOnce() + Send + 'static) {
    let (tx, rx) = std::sync::mpsc::channel();
    let handle = std::thread::spawn(move || {
        f();
        let _ = tx.send(());
    });
    match rx.recv_timeout(Duration::from_secs(60)) {
        Ok(()) => handle.join().expect("worker thread panicked"),
        Err(_) => panic!("{name}: deadlocked (did not finish within 60s)"),
    }
}

/// A scheduler task that opens a scope, whose jobs open nested scopes —
/// the shape of a parallel FFT (multi-stage fan-out) run from a task.
fn nested_scope_task(pool: &ThreadPool, hits: &AtomicUsize) {
    pool.scope(|s| {
        for _ in 0..4 {
            s.spawn(|s| {
                hits.fetch_add(1, Ordering::SeqCst);
                s.spawn(|_| {
                    // scope inside scope inside the executor task, on
                    // the same donor-only pool: the waiting job must
                    // execute the nested jobs itself if no sibling is
                    // free
                    pool.scope(|s2| {
                        for _ in 0..3 {
                            s2.spawn(|_| {
                                hits.fetch_add(1, Ordering::SeqCst);
                            });
                        }
                    });
                    hits.fetch_add(1, Ordering::SeqCst);
                });
            });
        }
    });
}

/// Floods `ex` with more nested-scope tasks than it has workers and
/// asserts every fork-join job ran. Generic over the scheduler so both
/// executor flavours share one scenario.
fn scenario(ex: Arc<dyn Scheduler>, pool: Arc<ThreadPool>, workers: usize) {
    let hits = Arc::new(AtomicUsize::new(0));
    let tasks = 2 * workers + 1; // more tasks than workers
    let latch = Arc::new(Latch::new(tasks));
    for _ in 0..tasks {
        let pool = Arc::clone(&pool);
        let hits = Arc::clone(&hits);
        let latch = Arc::clone(&latch);
        ex.submit(
            0,
            Box::new(move || {
                nested_scope_task(&pool, &hits);
                latch.count_down();
            }),
        );
    }
    latch.wait();
    // 4 outer + 4 inner + 4 * 3 nested-scope jobs per task
    assert_eq!(hits.load(Ordering::SeqCst), tasks * 20);
}

fn executor_scenario(workers: usize) {
    let pool = Arc::new(ThreadPool::donor_only());
    let ex = Executor::with_donation(workers, QueuePolicy::Priority, Arc::clone(&pool));
    scenario(Arc::new(ex), pool, workers);
}

fn stealing_scenario(workers: usize) {
    let pool = Arc::new(ThreadPool::donor_only());
    let ex = StealingExecutor::with_donation(workers, Arc::clone(&pool));
    scenario(Arc::new(ex), pool, workers);
}

#[test]
fn nested_scopes_complete_on_a_one_worker_executor() {
    must_finish("executor(1)", || executor_scenario(1));
}

#[test]
fn nested_scopes_complete_on_a_two_worker_executor() {
    must_finish("executor(2)", || executor_scenario(2));
}

#[test]
fn nested_scopes_complete_on_a_one_worker_stealing_executor() {
    must_finish("stealing(1)", || stealing_scenario(1));
}

#[test]
fn nested_scopes_complete_on_a_two_worker_stealing_executor() {
    must_finish("stealing(2)", || stealing_scenario(2));
}

#[test]
fn idle_workers_donate_to_external_scopes() {
    // a scope opened OUTSIDE the executor: its jobs must still run —
    // picked up by idle donating workers (or the owner), never lost
    must_finish("external scope", || {
        let pool = Arc::new(ThreadPool::donor_only());
        let _ex = Executor::with_donation(2, QueuePolicy::Priority, Arc::clone(&pool));
        let count = AtomicUsize::new(0);
        pool.scope(|s| {
            for _ in 0..32 {
                s.spawn(|_| {
                    count.fetch_add(1, Ordering::SeqCst);
                });
            }
        });
        assert_eq!(count.load(Ordering::SeqCst), 32);
    });
}

#[test]
fn donation_does_not_starve_scheduler_tasks() {
    // keep the fork-join pool saturated with jobs while submitting
    // scheduler tasks: the tasks must still all run (donation only
    // happens when the queue is empty)
    must_finish("no starvation", || {
        let pool = Arc::new(ThreadPool::donor_only());
        let ex = Arc::new(Executor::with_donation(
            2,
            QueuePolicy::Priority,
            Arc::clone(&pool),
        ));
        let done = Arc::new(Latch::new(50));
        // the scope joins the pool jobs, so none outlive the pool
        pool.scope(|s| {
            for _ in 0..200 {
                s.spawn(|_| std::thread::yield_now());
            }
            for _ in 0..50 {
                let done = Arc::clone(&done);
                ex.submit(1, Box::new(move || done.count_down()));
            }
            done.wait();
        });
    });
}
