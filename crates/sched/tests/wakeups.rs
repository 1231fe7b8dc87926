//! Stress test of the worker pool's park/wake protocol: every queue
//! discipline at W ∈ {1, 2, 4} does 20k submit→complete ping-pongs from
//! an outside thread and from inside a worker, then is dropped with
//! tasks still queued. Waits in the pool are untimed, so a lost wakeup
//! shows as a hang; a watchdog turns that into a failure.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::Arc;
use std::time::Duration;
use znn_sched::{Executor, Latch, QueuePolicy, Scheduler, StealingExecutor, ThreadPool};

const ROUNDS: usize = 20_000;
const WIDTHS: [usize; 3] = [1, 2, 4];
const WATCHDOG: Duration = Duration::from_secs(300);

/// Runs `body` on its own thread and fails if it has not finished
/// within the watchdog's budget.
fn watchdog(name: String, body: impl FnOnce() + Send + 'static) {
    let (tx, rx) = mpsc::channel();
    let run = std::thread::spawn(move || {
        body();
        let _ = tx.send(());
    });
    if let Err(RecvTimeoutError::Timeout) = rx.recv_timeout(WATCHDOG) {
        panic!("{name}: no progress in {WATCHDOG:?}, a lost wakeup");
    }
    // finished or panicked: re-raise a panic with its own message
    if let Err(p) = run.join() {
        std::panic::resume_unwind(p);
    }
}

/// Each submitted task runs and signals before the next is submitted,
/// so every round finds the workers parked.
fn ping_pong_outside(ex: &dyn Scheduler) {
    let (tx, rx) = mpsc::channel();
    for i in 0..ROUNDS {
        let tx = tx.clone();
        ex.submit(i as u64 % 4, Box::new(move || tx.send(()).unwrap()));
        rx.recv().unwrap();
    }
}

/// A chain of tasks, each submitted by its predecessor from a worker.
fn ping_pong_inside(ex: Arc<dyn Scheduler>) {
    fn link(ex: Arc<dyn Scheduler>, left: usize, done: Arc<Latch>) {
        if left == 0 {
            done.count_down();
            return;
        }
        let next = Arc::clone(&ex);
        ex.submit(
            left as u64 % 4,
            Box::new(move || link(next, left - 1, done)),
        );
    }
    let done = Arc::new(Latch::new(1));
    link(Arc::clone(&ex), ROUNDS, Arc::clone(&done));
    done.wait();
    ex.wait_quiescent();
}

/// Drops the pool with tasks queued behind workers blocked on a gate:
/// the drop drains the queue before joining. The gate opens a moment
/// later from another thread, most likely after the drop has begun;
/// the assertion holds either way.
fn drop_while_queued(ex: Box<dyn Scheduler>, workers: usize) {
    let ran = Arc::new(AtomicUsize::new(0));
    let gate = Arc::new(Latch::new(1));
    for _ in 0..workers {
        let gate = Arc::clone(&gate);
        ex.submit(0, Box::new(move || gate.wait()));
    }
    for i in 0..1000 {
        let ran = Arc::clone(&ran);
        ex.submit(
            i % 3,
            Box::new(move || {
                ran.fetch_add(1, Ordering::SeqCst);
            }),
        );
    }
    let opener = std::thread::spawn({
        let gate = Arc::clone(&gate);
        move || {
            std::thread::sleep(Duration::from_millis(5));
            gate.count_down();
        }
    });
    drop(ex);
    opener.join().unwrap();
    assert_eq!(
        ran.load(Ordering::SeqCst),
        1000,
        "drop must drain the queue"
    );
}

fn stress_scheduler(name: &str, make: fn(usize) -> Box<dyn Scheduler>) {
    for w in WIDTHS {
        watchdog(format!("{name} W={w}"), move || {
            let ex: Arc<dyn Scheduler> = Arc::from(make(w));
            ping_pong_outside(&*ex);
            ping_pong_inside(Arc::clone(&ex));
            assert_eq!(ex.stats().executed, 2 * ROUNDS as u64);
            drop(ex);
            drop_while_queued(make(w), w);
        });
    }
}

#[test]
fn priority_never_loses_a_wakeup() {
    stress_scheduler("priority", |w| {
        Box::new(Executor::new(w, QueuePolicy::Priority))
    });
}

#[test]
fn fifo_never_loses_a_wakeup() {
    stress_scheduler("fifo", |w| Box::new(Executor::new(w, QueuePolicy::Fifo)));
}

#[test]
fn lifo_never_loses_a_wakeup() {
    stress_scheduler("lifo", |w| Box::new(Executor::new(w, QueuePolicy::Lifo)));
}

#[test]
fn stealing_never_loses_a_wakeup() {
    stress_scheduler("stealing", |w| Box::new(StealingExecutor::new(w)));
}

#[test]
fn fork_join_scope_never_loses_a_wakeup() {
    for w in WIDTHS {
        watchdog(format!("scope W={w}"), move || {
            let pool = ThreadPool::with_workers(w);
            let hits = AtomicUsize::new(0);
            // outside: the test thread owns every scope
            for _ in 0..ROUNDS {
                pool.scope(|s| {
                    s.spawn(|_| {
                        hits.fetch_add(1, Ordering::SeqCst);
                    });
                });
            }
            // inside: a worker owns every scope
            pool.scope(|s| {
                s.spawn(|_| {
                    for _ in 0..ROUNDS {
                        pool.scope(|t| {
                            t.spawn(|_| {
                                hits.fetch_add(1, Ordering::SeqCst);
                            });
                        });
                    }
                });
            });
            assert_eq!(hits.load(Ordering::SeqCst), 2 * ROUNDS);
        });
    }
}
