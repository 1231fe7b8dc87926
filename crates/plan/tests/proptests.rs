//! Property tests for the discrete-event simulator: classic list-
//! scheduling bounds must hold for every network, machine and policy.

use proptest::prelude::*;
use znn_graph::builder::scalability_net_3d;
use znn_graph::{Graph, TaskGraph};
use znn_ops::ConvMethod;
use znn_plan::cost::task_costs;
use znn_plan::{simulate, Machine, NetPlan, SimConfig};
use znn_sched::QueuePolicy;
use znn_tensor::Vec3;

/// Per-task costs of `g` at output 8³ under the forced single-method plan.
fn forced_costs(g: &Graph, m: ConvMethod, memo: bool) -> (TaskGraph, Vec<f64>) {
    let out = Vec3::cube(8);
    task_costs(g, out, &NetPlan::force(g, out, m, 1, false).unwrap(), memo).unwrap()
}

fn machine() -> impl Strategy<Value = Machine> {
    prop_oneof![
        Just(Machine::xeon_e5_8core()),
        Just(Machine::xeon_e5_18core()),
        Just(Machine::xeon_e7_40core()),
        Just(Machine::xeon_phi()),
    ]
}

fn policy() -> impl Strategy<Value = QueuePolicy> {
    prop_oneof![
        Just(QueuePolicy::Priority),
        Just(QueuePolicy::Fifo),
        Just(QueuePolicy::Lifo),
    ]
}

/// Longest cost-weighted path through the task graph — the schedule-
/// independent lower bound on makespan (in 1-worker time units).
fn critical_path(tg: &TaskGraph, costs: &[f64]) -> f64 {
    let mut longest = vec![0.0f64; tg.tasks.len()];
    for (i, t) in tg.tasks.iter().enumerate() {
        let dep_max = t
            .deps
            .iter()
            .map(|d| longest[d.0])
            .fold(0.0f64, f64::max);
        longest[i] = dep_max + costs[i];
    }
    longest.into_iter().fold(0.0, f64::max)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn makespan_respects_list_scheduling_bounds(
        width in 2usize..12,
        workers in 1usize..40,
        m in machine(),
        p in policy(),
        overhead in prop_oneof![Just(0u64), 1u64..100_000],
    ) {
        let overhead = overhead as f64;
        let (g, _) = scalability_net_3d(width);
        let (tg, costs) = forced_costs(&g, ConvMethod::Direct, false);
        let cfg = SimConfig { workers, policy: p, overhead, ..Default::default() };
        let r = simulate(&tg, &costs, &m, &cfg);
        // a task occupies its worker for its cost plus the overhead
        let costs: Vec<f64> = costs.iter().map(|c| c + overhead).collect();

        let speed = m.worker_speed(workers.min(m.hw_threads));
        let total: f64 = costs.iter().sum();
        let cp = critical_path(&tg, &costs) / speed;
        let area = total / (speed * workers.min(m.hw_threads) as f64);

        // lower bounds: critical path and total-work area
        prop_assert!(r.makespan + 1e-6 >= cp, "below critical path");
        prop_assert!(r.makespan + 1e-6 >= area, "below work area");
        // Graham bound for any greedy list schedule: 2x optimal
        prop_assert!(
            r.makespan <= cp + area + 1e-6,
            "greedy bound violated: {} > {} + {}",
            r.makespan, cp, area
        );
        // utilization is a fraction
        prop_assert!(r.busy_fraction > 0.0 && r.busy_fraction <= 1.0 + 1e-9);
    }

    #[test]
    fn speedup_never_exceeds_total_throughput(
        width in 2usize..10,
        m in machine(),
    ) {
        let (g, _) = scalability_net_3d(width);
        let (tg, costs) = forced_costs(&g, ConvMethod::Fft, true);
        let workers = m.hw_threads;
        let r = simulate(&tg, &costs, &m, &SimConfig { workers, ..Default::default() });
        prop_assert!(
            r.speedup <= m.total_throughput(workers) + 1e-6,
            "speedup {} beyond machine throughput {}",
            r.speedup,
            m.total_throughput(workers)
        );
        prop_assert!(r.speedup >= 1.0 - 1e-9);
    }

    #[test]
    fn more_workers_never_increase_total_work(
        width in 2usize..8,
        w1 in 1usize..16,
        w2 in 1usize..16,
    ) {
        // busy area (work) is invariant under worker count
        let (g, _) = scalability_net_3d(width);
        let (tg, costs) = forced_costs(&g, ConvMethod::Direct, false);
        let m = Machine::xeon_e5_18core();
        let r1 = simulate(&tg, &costs, &m, &SimConfig { workers: w1, ..Default::default() });
        let r2 = simulate(&tg, &costs, &m, &SimConfig { workers: w2, ..Default::default() });
        let work1 = r1.busy_fraction * r1.makespan * w1.min(m.hw_threads) as f64
            * m.worker_speed(w1);
        let work2 = r2.busy_fraction * r2.makespan * w2.min(m.hw_threads) as f64
            * m.worker_speed(w2);
        prop_assert!(
            (work1 - work2).abs() < 1e-6 * work1.max(work2),
            "{work1} vs {work2}"
        );
    }
}
