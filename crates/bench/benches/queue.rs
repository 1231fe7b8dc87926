//! Queue ablation (§VII-A): the heap-of-lists (O(log K)) against a
//! plain binary heap keyed on every task (O(log N)) under a
//! wide-network workload where K << N. Both pop the same order; the
//! binary heap is a bench-local reference, not a scheduler policy.

use criterion::{criterion_group, criterion_main, Criterion};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::hint::black_box;
use std::time::Duration;
use znn_sched::queue::TaskQueue;
use znn_sched::QueuePolicy;

fn heap_of_lists(tasks: usize, distinct: u64) {
    let mut q: TaskQueue<u64> = TaskQueue::new(QueuePolicy::Priority);
    // layered arrival: bursts of same-priority tasks, like wide layers
    for i in 0..tasks as u64 {
        q.push(i % distinct, i);
    }
    while q.pop().is_some() {}
}

fn binary_heap(tasks: usize, distinct: u64) {
    // (priority, arrival) keys give the same stable priority order
    let mut q = BinaryHeap::new();
    for i in 0..tasks as u64 {
        q.push(Reverse((i % distinct, i)));
    }
    while q.pop().is_some() {}
}

fn bench_queue(c: &mut Criterion) {
    let mut group = c.benchmark_group("queue");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(100))
        .measurement_time(Duration::from_millis(400));
    for (tasks, distinct) in [(10_000usize, 8u64), (10_000, 1000)] {
        group.bench_function(format!("heap_of_lists/N{tasks}/K{distinct}"), |b| {
            b.iter(|| heap_of_lists(black_box(tasks), distinct))
        });
        group.bench_function(format!("binary_heap/N{tasks}/K{distinct}"), |b| {
            b.iter(|| binary_heap(black_box(tasks), distinct))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_queue);
criterion_main!(benches);
