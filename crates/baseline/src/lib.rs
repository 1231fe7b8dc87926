//! Baseline ConvNet engines (paper §IX).
//!
//! The paper benchmarks ZNN against GPU frameworks (Caffe, Theano,
//! cuDNN) whose defining execution model is **layer-at-a-time SIMD data
//! parallelism with direct convolution**: "the current GPU
//! implementations employ SIMD parallelism to perform computation on
//! one whole layer at a time". This crate provides that comparator —
//! plus the sequential special case used as the independent reference
//! implementation for differential testing of the task-parallel engine:
//!
//! * [`ReferenceNet`] — a deliberately simple, sequential,
//!   direct-convolution trainer over any computation graph. Shares no
//!   code with `znn-core`'s execution machinery, which is what makes
//!   agreement between the two engines meaningful evidence of
//!   correctness.
//! * [`LayerwiseNet`] — the same semantics with each layer's edges
//!   evaluated in parallel (one fork-join scope per level on
//!   `znn-sched`'s global pool) and a **barrier between layers**,
//!   standing in for the GPU baselines of Figs 8–9: what separates
//!   those frameworks from ZNN is the layer-at-a-time schedule, not
//!   the device, so the comparator keeps the schedule on the CPU.

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![warn(unreachable_pub)]

mod layerwise;
mod reference;

pub use layerwise::LayerwiseNet;
pub use reference::ReferenceNet;

#[cfg(test)]
mod tests {
    use crate::layerwise::chunked_map;
    use znn_sched::ThreadPool;

    #[test]
    fn parallel_map_preserves_order() {
        let v: Vec<usize> = (0..1000).collect();
        for workers in [1, 2, 4] {
            let pool = ThreadPool::with_workers(workers);
            let doubled = chunked_map(&pool, &v, |&x| x * 2);
            assert_eq!(doubled, (0..1000).map(|x| x * 2).collect::<Vec<_>>(), "{workers} workers");
        }
    }

    #[test]
    fn works_on_tiny_and_empty_inputs() {
        for workers in [1, 2, 4] {
            let pool = ThreadPool::with_workers(workers);
            let out: Vec<u8> = chunked_map(&pool, &[] as &[u8], |&x| x);
            assert!(out.is_empty());
            assert_eq!(chunked_map(&pool, &[7u8], |&x| x + 1), vec![8]);
            // fewer items than workers: every item still maps once
            assert_eq!(chunked_map(&pool, &[1u8, 2, 3], |&x| x * 3), vec![3, 6, 9]);
        }
    }
}
