//! Small direct measurements of single layers' public functions, at the
//! sizes the workload uses them: SIMD kernels, the scheduler's empty-task
//! cost, the concurrent sum, pool leases, FFT fan-out, the host probe,
//! the planner and the analytic model. `effort` (0..=1) scales iteration
//! counts down for `--smoke`.

use crate::stats;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;
use znn_alloc::PoolSet;
use znn_fft::{good_shape, FftEngine};
use znn_graph::builder::{LayerKind, NetInfo};
use znn_graph::{EdgeOp, Graph};
use znn_ops::ConvMethod;
use znn_plan::{NetPlan, PlanConfig, Planner};
use znn_sched::{Accumulate, ConcurrentSum, Executor, QueuePolicy, Scheduler};
use znn_sim::Machine;
use znn_tensor::{ops, Image, Vec3};
use znn_theory::{achievable_speedup, ConvAlgorithm, LayerModel, NetworkModel, DEFAULT_C};

/// Fastest of `reps` timings of `f`, in seconds.
fn fastest_s(reps: usize, mut f: impl FnMut()) -> f64 {
    (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

/// ns per element of `znn_simd::fma_acc_f` over an image of `shape`
/// walked in contiguous rows of its innermost extent — the direct
/// convolver's tap accumulation.
pub fn simd_fma_ns_elem(shape: Vec3) -> f64 {
    let row = shape[2].max(1);
    let src = ops::random(shape, 11);
    let mut dst = ops::random(shape, 12);
    let taps = 27;
    let s = fastest_s(7, || {
        for tap in 0..taps {
            let w = 0.01 * tap as f32;
            for (d, s) in dst
                .as_mut_slice()
                .chunks_mut(row)
                .zip(src.as_slice().chunks(row))
            {
                znn_simd::fma_acc_f(d, w, s);
            }
        }
        black_box(&mut dst);
    });
    s * 1e9 / (taps * shape.len()) as f64
}

/// ns per element of `znn_simd::bias_relu_f` over one image of `shape`.
pub fn simd_transfer_ns_elem(shape: Vec3) -> f64 {
    let mut img = ops::random(shape, 13);
    let reps = 16;
    let s = fastest_s(7, || {
        for _ in 0..reps {
            znn_simd::bias_relu_f(img.as_mut_slice(), 1e-3);
        }
        black_box(&mut img);
    });
    s * 1e9 / (reps * shape.len()) as f64
}

/// `(dispatch_us, task_overhead_us)`: cost of `Executor::submit` per
/// task on the submitting thread, and wall time per empty task from
/// first submit to quiescence, at `workers` workers.
pub fn sched_empty_tasks(workers: usize, effort: f64) -> (f64, f64) {
    let ex = Executor::new(workers, QueuePolicy::Priority);
    let n = (20_000.0 * effort) as u64;
    let mut dispatch = f64::INFINITY;
    let mut total = f64::INFINITY;
    for _ in 0..3 {
        let t0 = Instant::now();
        for i in 0..n {
            ex.submit(i % 16, Box::new(|| {}));
        }
        dispatch = dispatch.min(t0.elapsed().as_secs_f64());
        ex.wait_quiescent();
        total = total.min(t0.elapsed().as_secs_f64());
    }
    (dispatch * 1e6 / n as f64, total * 1e6 / n as f64)
}

struct Summand(Image);

impl Accumulate for Summand {
    fn accumulate(&mut self, other: Self) {
        ops::add_assign(&mut self.0, &other.0);
    }
}

/// Mean µs per `ConcurrentSum::add` of a `shape` image with `threads`
/// threads adding into one sum of fan-in `fan_in`.
pub fn sum_add_us(shape: Vec3, threads: usize, fan_in: usize) -> f64 {
    let fan_in = fan_in.max(2);
    // every thread adds a whole number of complete sums' worth, so the
    // accumulator ends the run drained
    let per_thread = fan_in * 8;
    let sum = ConcurrentSum::<Summand>::new(fan_in);
    let mut per_add_us = Vec::new();
    for _ in 0..3 {
        let batches: Vec<Vec<Summand>> = (0..threads)
            .map(|t| {
                (0..per_thread)
                    .map(|i| Summand(ops::random(shape, (t * 1000 + i) as u64)))
                    .collect()
            })
            .collect();
        let times: Vec<f64> = std::thread::scope(|scope| {
            let handles: Vec<_> = batches
                .into_iter()
                .map(|batch| {
                    let sum = &sum;
                    scope.spawn(move || {
                        let t0 = Instant::now();
                        for s in batch {
                            if sum.add(s) {
                                black_box(sum.take());
                            }
                        }
                        t0.elapsed().as_secs_f64() * 1e6 / per_thread as f64
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("sum thread"))
                .collect()
        });
        per_add_us.push(times.iter().sum::<f64>() / times.len() as f64);
    }
    stats::quantile(&per_add_us, 0.0)
}

/// ns per pooled lease-and-return of a `shape` image on a warm pool,
/// from `threads` threads at once (mean over threads of each thread's
/// fastest batch).
pub fn lease_ns(shape: Vec3, threads: usize, effort: f64) -> f64 {
    let pools = PoolSet::new();
    // park one chunk per thread so the timed leases are all hits
    drop((0..threads).map(|_| pools.image(shape)).collect::<Vec<_>>());
    let n = (5_000.0 * effort) as usize;
    let per_thread: Vec<f64> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let pools = Arc::clone(&pools);
                scope.spawn(move || {
                    fastest_s(5, || {
                        for _ in 0..n {
                            black_box(pools.image(shape));
                        }
                    }) * 1e9
                        / n as f64
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("lease thread"))
            .collect()
    });
    per_thread.iter().sum::<f64>() / per_thread.len() as f64
}

/// Time of the forward transform of a `shape` image on one thread over
/// the time at `threads` threads.
pub fn fft_fanout_speedup(shape: Vec3, threads: usize) -> f64 {
    let m = good_shape(shape);
    let img = ops::random(shape, 17);
    let time = |engine: &FftEngine| {
        black_box(engine.forward_padded(&img, m)); // plans
        fastest_s(7, || {
            black_box(engine.forward_padded(&img, m));
        })
    };
    time(&FftEngine::with_threads(1)) / time(&FftEngine::with_threads(threads))
}

pub struct PlanFacts {
    pub plan_ms: f64,
    /// Share of conv edges `Planner::plan` would run as FFT.
    pub fft_edge_share: f64,
    /// Uncalibrated predicted round time of the forced method at one
    /// worker, ms.
    pub predicted_round_ms: f64,
}

pub fn plan_facts(
    graph: &Graph,
    out: Vec3,
    method: ConvMethod,
    workers: usize,
    machine: Machine,
) -> PlanFacts {
    let planner = Planner::new(PlanConfig::for_machine(machine));
    let t0 = Instant::now();
    let plan = planner
        .plan(graph, out, workers, workers)
        .expect("valid net");
    let plan_ms = t0.elapsed().as_secs_f64() * 1e3;
    let chosen: Vec<ConvMethod> = plan.edges.iter().flatten().map(|e| e.method).collect();
    let forced = NetPlan::force(graph, out, method, 1, false).expect("valid net");
    PlanFacts {
        plan_ms,
        fft_edge_share: chosen.iter().filter(|&&m| m == ConvMethod::Fft).count() as f64
            / chosen.len().max(1) as f64,
        predicted_round_ms: planner.price(graph, out, 1, &forced).expect("valid net") / 1e3,
    }
}

pub struct TheoryFacts {
    /// Serial FLOPs of one round in the paper's Table I/II model, GFLOP.
    pub gflop_round: f64,
    /// Brent's-theorem speedup bound at `workers` processors.
    pub brent_bound: f64,
}

/// The analytic model of a layered isotropic 3D net. `input` is the
/// input extent per axis.
pub fn theory_facts(
    info: &NetInfo,
    input: usize,
    method: ConvMethod,
    workers: usize,
) -> TheoryFacts {
    let algo = match method {
        ConvMethod::Direct => ConvAlgorithm::Direct,
        ConvMethod::Fft => ConvAlgorithm::FftMemoized,
    };
    let mut n = input as f64;
    let mut width = info.inputs.len() as f64;
    let mut layers = Vec::new();
    for layer in &info.layers {
        let f = layer.width as f64;
        match layer.kind {
            LayerKind::Conv { kernel, sparsity } => {
                let k = kernel[0] as f64;
                let n_out = n - (k - 1.0) * sparsity[0] as f64;
                // the model has no skip kernels: direct cost follows the
                // true output extent, FFT cost the true image extent
                let model_n = if algo == ConvAlgorithm::Direct {
                    n_out + k - 1.0
                } else {
                    n
                };
                layers.push(LayerModel::Conv {
                    n: model_n,
                    k,
                    f_in: width,
                    f_out: f,
                });
                n = n_out;
            }
            LayerKind::Transfer(_) => layers.push(LayerModel::Transfer { n, f }),
            LayerKind::MaxPool(p) => {
                layers.push(LayerModel::MaxPool { n, f });
                n /= p[0] as f64;
            }
            LayerKind::MaxFilter(window, dilation) => {
                let k = window[0] as f64;
                layers.push(LayerModel::MaxFilter { n, f, k });
                n -= (k - 1.0) * dilation[0] as f64;
            }
        }
        width = f;
    }
    let net = NetworkModel { layers };
    TheoryFacts {
        gflop_round: net.t1(algo, DEFAULT_C) / 1e9,
        brent_bound: achievable_speedup(&net, algo, workers as f64),
    }
}

/// Conv edges of `graph`.
pub fn conv_edges(graph: &Graph) -> usize {
    graph
        .edges()
        .iter()
        .filter(|e| matches!(e.op, EdgeOp::Conv { .. }))
        .count()
}
