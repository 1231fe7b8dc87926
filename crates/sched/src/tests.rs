//! Unit tests of the fork-join pool ([`crate::pool`]).

use crate::pool::{scope, ThreadPool};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

#[test]
fn scope_joins_all_spawned_tasks() {
    let mut parts = vec![0u64; 8];
    scope(|s| {
        for (i, p) in parts.iter_mut().enumerate() {
            s.spawn(move |_| *p = (i as u64 + 1) * 10);
        }
    });
    assert_eq!(parts, (1..=8).map(|i| i * 10).collect::<Vec<_>>());
}

#[test]
fn scope_supports_nested_spawns() {
    let flags = std::sync::Mutex::new(Vec::new());
    scope(|s| {
        s.spawn(|s| {
            flags.lock().unwrap().push("outer");
            s.spawn(|_| flags.lock().unwrap().push("inner"));
        });
    });
    let got = flags.into_inner().unwrap();
    assert_eq!(got.len(), 2);
    assert_eq!(got[0], "outer");
}

#[test]
fn single_worker_pool_completes_nested_scopes() {
    // the no-deadlock property: the scope owner executes pending
    // jobs itself, so nesting deeper than the worker count finishes
    let pool = ThreadPool::with_workers(1);
    let hits = AtomicUsize::new(0);
    pool.scope(|s| {
        for _ in 0..4 {
            s.spawn(|s| {
                hits.fetch_add(1, Ordering::SeqCst);
                s.spawn(|s| {
                    hits.fetch_add(1, Ordering::SeqCst);
                    s.spawn(|_| {
                        hits.fetch_add(1, Ordering::SeqCst);
                    });
                });
            });
        }
    });
    assert_eq!(hits.load(Ordering::SeqCst), 12);
}

#[test]
fn scope_propagates_task_panics() {
    let result = std::panic::catch_unwind(|| {
        scope(|s| {
            s.spawn(|_| panic!("task panic"));
        });
    });
    assert!(result.is_err());
}

#[test]
fn pool_drop_joins_workers() {
    let pool = ThreadPool::with_workers(2);
    let done = Arc::new(AtomicUsize::new(0));
    pool.scope(|s| {
        for _ in 0..8 {
            let done = Arc::clone(&done);
            s.spawn(move |_| {
                done.fetch_add(1, Ordering::SeqCst);
            });
        }
    });
    assert_eq!(done.load(Ordering::SeqCst), 8);
    drop(pool); // must not hang
}
