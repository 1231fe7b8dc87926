//! The benchmark's contract: workloads, metric names, units, directions
//! and regression bounds. `BENCHMARK.json` at the repository root is the
//! output of the `manifest` subcommand; `--smoke` fails when the two
//! differ, so names cannot drift between the file and the code.

use crate::json::Json;

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

#[derive(Clone, Copy, PartialEq)]
pub enum Better {
    Lower,
    Higher,
}

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

/// Seconds one run measures at the reference op counts
/// ([`TIMED_OPS`], [`TIMED_OPS_W1`]); `--seconds` scales the counts.
pub const RUN_SECONDS: u64 = 20;
/// Timed ops at W workers per `RUN_SECONDS`.
pub const TIMED_OPS: usize = 300;
/// Timed ops at one worker per `RUN_SECONDS`.
pub const TIMED_OPS_W1: usize = 100;

pub const COMMAND: [&str; 8] = [
    "cargo",
    "run",
    "--release",
    "--offline",
    "--quiet",
    "--manifest-path",
    "znn_benchmark/Cargo.toml",
    "--",
];

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "train3d_fft",
        why: "3D C5^3 T M2^3 C5^3 T M2^3 C5^3 T C5^3 T, width 2, out 8^3 (in 55^3), ForceFft + memoization; op = 1 train_step, ~31 ms at W=2 / 58 ms at 1 worker. Transforms, spectrum MACs; bypasses direct conv.",
    },
    Workload {
        name: "train3d_direct",
        why: "scalability_net_3d(8), out 4^3 (in 29^3), ForceDirect; op = 1 train_step, ~34/65 ms. 144 conv edges x 3 tasks, time-domain sums, max-filter; bypasses znn-fft entirely.",
    },
    Workload {
        name: "train2d_recover",
        why: "comparison_net(3, 5^2, 2^2, sparse), out 16^2, ForceDirect; op = Trainer::run_recoverable(10 rounds) + 1 fsync'd checkpoint, ~40/54 ms. Cheap kernels: scheduling, driver loop, checkpoint dominate.",
    },
    Workload {
        name: "serve3d_dense",
        why: "scalability_net_3d(4) DenseNet (ForceFft, shared kernel spectra, fft_threads 1) behind Server, W workers; op = one 38x38x31 volume in four 8^3 halo blocks, closed loop, W in flight, ~57 ms.",
    },
];

/// Name, unit, direction, allowed worsening (share of the parent's median).
/// The three timing bounds are wider than the 0.10 first proposed: the
/// shared recording host drifts by ~15 % over minutes, and ten runs taken
/// across such a drift spread by up to 0.16 at W workers and 0.10 at one
/// (README, "Why the quietest block's fast decile").
pub const END_TO_END: [(Metric, f64); 5] = [
    (m("op_ms_p10", "ms", Better::Lower), 0.25),
    (m("ops_per_s", "1/s", Better::Higher), 0.25),
    (m("op_ms_p10_w1", "ms", Better::Lower), 0.20),
    (m("setup_s", "s", Better::Lower), 0.25),
    (m("peak_rss_mb", "MiB", Better::Lower), 0.10),
];

const fn m(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric { name, unit, better }
}

use Better::{Higher as Hi, Lower as Lo};

pub const PER_LAYER: [Metric; 85] = [
    // znn-tensor
    m("tensor.padcrop_ms_op", "ms", Lo),
    m("tensor.add_gbs", "GB/s", Hi),
    // znn-simd, at the workload's own slice lengths
    m("simd.cmac_ns_elem", "ns", Lo),
    m("simd.fma_ns_elem", "ns", Lo),
    m("simd.transfer_ns_elem", "ns", Lo),
    // znn-fft
    m("fft.fwd_ms_op", "ms", Lo),
    m("fft.inv_ms_op", "ms", Lo),
    m("fft.kernel_spectrum_ms_op", "ms", Lo),
    m("fft.transforms_op", "count", Lo),
    m("fft.fwd_gflops", "GFLOP/s", Hi),
    m("fft.fwd_gbs", "GB/s", Hi),
    m("fft.cached_plans", "count", Lo),
    m("fft.fanout_speedup", "x", Hi),
    // znn-ops
    m("ops.direct_fwd_ms_op", "ms", Lo),
    m("ops.direct_bwd_ms_op", "ms", Lo),
    m("ops.direct_upd_ms_op", "ms", Lo),
    m("ops.direct_gflops", "GFLOP/s", Hi),
    m("ops.maxfilter_ms_op", "ms", Lo),
    m("ops.transfer_ms_op", "ms", Lo),
    m("ops.loss_ms_op", "ms", Lo),
    // znn-graph
    m("graph.build_ms", "ms", Lo),
    m("graph.edges", "count", Lo),
    m("graph.conv_edges", "count", Lo),
    // znn-sim, znn-plan, znn-theory
    m("sim.detect_ms", "ms", Lo),
    m("sim.host_gflops", "GFLOP/s", Hi),
    m("sim.host_gbs", "GB/s", Hi),
    m("plan.plan_ms", "ms", Lo),
    m("plan.fft_edge_share", "share", Hi),
    m("plan.predicted_over_measured", "x", Lo),
    m("theory.flops_op", "GFLOP", Lo),
    m("theory.achieved_gflops", "GFLOP/s", Hi),
    m("theory.brent_speedup_bound", "x", Hi),
    // znn-sched
    m("sched.tasks_op", "count", Lo),
    m("sched.dispatch_us", "us", Lo),
    m("sched.task_overhead_us", "us", Lo),
    m("sched.sum_add_us", "us", Lo),
    m("sched.force_inline_share", "share", Hi),
    m("sched.force_delegated_share", "share", Lo),
    m("sched.peak_priorities", "count", Lo),
    m("sched.stealing_over_priority", "x", Lo),
    m("sched.fifo_over_priority", "x", Lo),
    // znn-alloc
    m("alloc.hit_rate", "share", Hi),
    m("alloc.misses_steady", "count", Lo),
    m("alloc.resident_mb", "MiB", Lo),
    m("alloc.leased_mb_op", "MiB", Lo),
    m("alloc.lease_ns", "ns", Lo),
    m("alloc.lease_ns_tw", "ns", Lo),
    m("alloc.nopool_over_pooled", "x", Hi),
    // znn-core
    m("core.op_ms_p50", "ms", Lo),
    m("core.op_ms_p90", "ms", Lo),
    m("core.op_ms_max", "ms", Lo),
    m("core.disturbed_share", "share", Lo),
    m("core.cpu_ms_op", "ms", Lo),
    m("core.scaling_eff", "share", Hi),
    m("core.fwd_only_ms_p10", "ms", Lo),
    m("core.znn_new_ms", "ms", Lo),
    m("core.first_op_ms", "ms", Lo),
    m("core.memo_spectrum_mb", "MiB", Lo),
    m("core.layers_sum_ms_op", "ms", Lo),
    m("core.attributed_share", "share", Hi),
    m("core.unattributed_ms_op", "ms", Lo),
    // train2d_recover only
    m("core.data_sample_ms", "ms", Lo),
    m("core.params_snapshot_ms", "ms", Lo),
    m("core.ckpt_encode_ms", "ms", Lo),
    m("core.ckpt_write_ms_p10", "ms", Lo),
    m("core.ckpt_restore_ms", "ms", Lo),
    m("core.ckpt_bytes", "B", Lo),
    m("core.recover_overhead_share", "share", Lo),
    // serve3d_dense only
    m("core.dense_fwd_ms_p10", "ms", Lo),
    m("core.dense_blocked_over_whole", "x", Lo),
    m("core.dense_spectra_mb", "MiB", Lo),
    m("serve.latency_ms_p50", "ms", Lo),
    m("serve.latency_ms_p90", "ms", Lo),
    m("serve.latency_ms_p99", "ms", Lo),
    m("serve.queue_overhead_ms", "ms", Lo),
    m("serve.worker_scaling_eff", "share", Hi),
    m("serve.depth_mean", "count", Lo),
    m("serve.shed_share", "share", Lo),
    m("serve.deadline_miss_share", "share", Lo),
    m("serve.degraded_batches", "count", Lo),
    m("serve.open_latency_ms_p50", "ms", Lo),
    m("serve.open_latency_ms_p90", "ms", Lo),
    m("serve.open_late_ms_max", "ms", Lo),
    // comparator and tracing cost
    m("baseline.layerwise_ms_p10", "ms", Lo),
    m("trace.overhead_share", "share", Lo),
];

fn metric_json(metric: &Metric, bound: Option<f64>) -> Json {
    let mut pairs = vec![
        ("name", Json::str(metric.name)),
        ("unit", Json::str(metric.unit)),
        (
            "better",
            Json::str(if metric.better == Better::Lower {
                "lower"
            } else {
                "higher"
            }),
        ),
    ];
    if let Some(b) = bound {
        pairs.push(("bound", Json::Num(b)));
    }
    Json::obj(pairs)
}

/// The manifest as the JSON document `BENCHMARK.json` must equal.
pub fn manifest() -> Json {
    Json::obj([
        (
            "command",
            Json::Arr(COMMAND.iter().map(|s| Json::str(s)).collect()),
        ),
        ("paths", Json::Arr(vec![Json::str("znn_benchmark")])),
        ("run_seconds", Json::Num(RUN_SECONDS as f64)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| Json::obj([("name", Json::str(w.name)), ("why", Json::str(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|(m, b)| metric_json(m, Some(*b)))
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(PER_LAYER.iter().map(|m| metric_json(m, None)).collect()),
        ),
    ])
}
