//! The three training workloads: `train3d_fft`, `train3d_direct`,
//! `train2d_recover`.

use crate::common::{
    cap_block, contained, rel_diff, run_block, run_phase, Check, OpCounts, OpResult, Outcome,
    Phase, PoolCounters, RunArgs, MIB, SEGMENT_OPS, WARMUP_OPS,
};
use crate::host;
use crate::micro;
use crate::replay::{put_layer_metrics, TrainReplay};
use crate::stats;
use crate::trace::Tracer;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;
use znn_alloc::PoolSet;
use znn_baseline::{LayerwiseNet, ReferenceNet};
use znn_core::{
    latest_valid, Checkpoint, CheckpointConfig, ConvPolicy, Dataset, RandomDataset, TrainConfig,
    TrainOutcome, Trainer, Znn,
};
use znn_graph::builder::{comparison_net, scalability_net_3d, NetInfo};
use znn_graph::{shapes, EdgeOp, Graph, NetBuilder, NodeId};
use znn_ops::{ConvMethod, Loss, Transfer};
use znn_sched::QueuePolicy;
use znn_tensor::{Image, Vec3};

/// Rounds in one `train2d_recover` op.
const RECOVER_ROUNDS: u64 = 10;

pub struct Spec {
    net: fn() -> (Graph, NetInfo),
    out: Vec3,
    conv: ConvPolicy,
    /// `Trainer::run_recoverable` blocks instead of single steps.
    recover: bool,
    lr: f32,
}

/// `C5³ T M2³ C5³ T M2³ C5³ T C5³ T`, width 2: 5³ kernels put the net
/// where the paper says FFT wins (§IX), and the max-filters make the
/// later kernels sparse, so kernel spectra are dilated before transform.
fn fft_net() -> (Graph, NetInfo) {
    let k = Vec3::cube(5);
    let w = 2;
    NetBuilder::new("bench-fft3d", 1)
        .conv(w, k)
        .transfer(Transfer::Relu)
        .max_filter(Vec3::cube(2))
        .conv(w, k)
        .transfer(Transfer::Relu)
        .max_filter(Vec3::cube(2))
        .conv(w, k)
        .transfer(Transfer::Relu)
        .conv(1, k)
        .transfer(Transfer::Logistic)
        .build()
        .expect("valid architecture")
}

pub fn spec(name: &str) -> Option<Spec> {
    Some(match name {
        "train3d_fft" => Spec {
            net: fft_net,
            out: Vec3::cube(8),
            conv: ConvPolicy::ForceFft,
            recover: false,
            lr: 0.0005,
        },
        "train3d_direct" => Spec {
            net: || scalability_net_3d(8),
            out: Vec3::cube(4),
            conv: ConvPolicy::ForceDirect,
            recover: false,
            lr: 0.002,
        },
        "train2d_recover" => Spec {
            net: || comparison_net(3, Vec3::flat(5, 5), Vec3::flat(2, 2), true),
            out: Vec3::flat(16, 16),
            conv: ConvPolicy::ForceDirect,
            recover: true,
            lr: 0.0003,
        },
        _ => return None,
    })
}

impl Spec {
    fn method(&self) -> ConvMethod {
        match self.conv {
            ConvPolicy::ForceFft => ConvMethod::Fft,
            _ => ConvMethod::Direct,
        }
    }

    fn other_policy(&self) -> ConvPolicy {
        match self.conv {
            ConvPolicy::ForceFft => ConvPolicy::ForceDirect,
            _ => ConvPolicy::ForceFft,
        }
    }
}

/// `RandomDataset` with the round taken modulo one op's length: every op
/// trains on the same ten samples, so the loss of a later op is
/// comparable with an earlier one's.
struct Cycled(RandomDataset);

impl Dataset for Cycled {
    fn sample(&mut self, round: u64) -> (Vec<Image>, Vec<Image>) {
        self.0.sample(round % RECOVER_ROUNDS)
    }
}

fn dataset(spec: &Spec, input_shape: Vec3, seed: u64) -> Cycled {
    Cycled(RandomDataset {
        input_shape,
        output_shape: spec.out,
        inputs: 1,
        outputs: 1,
        seed,
    })
}

/// The scheduler / allocator alternatives the traced run prices against
/// the default.
#[derive(Clone, Copy, PartialEq)]
enum Variant {
    Default,
    Fifo,
    Stealing,
    NoPool,
}

/// Times taken while a rig was built.
struct Built {
    graph_ms: f64,
    znn_new_ms: f64,
    first_op_ms: f64,
    setup_s: f64,
    fastest_warm_ms: f64,
}

/// One engine ready for timed ops, with its inputs.
struct Rig<'z> {
    znn: &'z Znn,
    trainer: Option<Trainer<'z, Cycled>>,
    inputs: Vec<Image>,
    targets: Vec<Image>,
    /// Loss of every single-step op since construction, warm-up included.
    step_losses: Vec<f64>,
    built: Built,
}

impl Rig<'_> {
    fn op(&mut self) -> OpResult {
        match &mut self.trainer {
            None => self
                .znn
                .try_train_step(&self.inputs, &self.targets)
                .inspect(|&loss| self.step_losses.push(loss))
                .map_err(|e| e.to_string()),
            Some(trainer) => {
                match trainer.run_recoverable(RECOVER_ROUNDS, RECOVER_ROUNDS, |_| {}) {
                    Ok(TrainOutcome::Completed { final_loss }) => Ok(final_loss),
                    Ok(TrainOutcome::Interrupted { at_round }) => {
                        Err(format!("interrupted at round {at_round}"))
                    }
                    Err(e) => Err(e.to_string()),
                }
            }
        }
    }
}

/// The sample single-step ops train on (and round 0 of the recover
/// workload's dataset): uniform inputs, random binary targets.
fn sample(spec: &Spec, input_shape: Vec3, seed: u64) -> (Vec<Image>, Vec<Image>) {
    dataset(spec, input_shape, seed).sample(0)
}

/// Both seeds of a run, derived from `--seed`.
#[derive(Clone, Copy)]
struct Seeds {
    /// Inputs and targets.
    data: u64,
    /// Parameter initialisation. A net whose last transfer is a ReLU can
    /// be born with an all-zero output, which has zero gradient: it would
    /// never learn and "loss falls" would be vacuous. For such nets the
    /// seed is stepped (deterministically) until the initial output is
    /// not identically zero; other nets use `--seed` itself.
    params: u64,
}

impl Seeds {
    fn derive(spec: &Spec, seed: u64) -> Seeds {
        let data = seed;
        if !spec.recover {
            return Seeds { data, params: seed };
        }
        let (graph, _) = (spec.net)();
        let input_shape = shapes::required_input_shape(&graph, spec.out).expect("valid net");
        let (inputs, _) = sample(spec, input_shape, data);
        let params = (0..64)
            .map(|k| seed.wrapping_add(k * 0x9E37_79B9))
            .find(|&s| {
                let (graph, _) = (spec.net)();
                let mut probe = ReferenceNet::new(graph, spec.out, s).expect("valid net");
                probe
                    .forward(&inputs)
                    .iter()
                    .any(|y| y.as_slice().iter().any(|&v| v != 0.0))
            })
            .expect("one of 64 seeded initialisations has a live output");
        Seeds { data, params }
    }
}

/// A fresh directory under the run directory.
fn scratch_dir(tag: &str) -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let dir = host::run_dir().join(format!(
        "{tag}-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).expect("create scratch directory inside the target directory");
    dir
}

/// Sets up one engine — inputs from `seed`, graph, `Znn::new` on a fresh
/// `PoolSet`, fixed warm-up ops — hands it to `body`, then tears it down
/// and reports pooled bytes still leased (must be 0).
fn with_rig<R>(
    spec: &Spec,
    seeds: Seeds,
    workers: usize,
    variant: Variant,
    body: impl FnOnce(&mut Rig<'_>, &Arc<PoolSet>) -> R,
) -> (R, usize) {
    let t0 = Instant::now();
    let (graph, _) = (spec.net)();
    let graph_ms = t0.elapsed().as_secs_f64() * 1e3;
    let input_shape = shapes::required_input_shape(&graph, spec.out).expect("valid net");
    let (inputs, targets) = sample(spec, input_shape, seeds.data);
    let pools = PoolSet::new();
    let ckpt_dir = spec.recover.then(|| scratch_dir("ckpt"));
    let cfg = TrainConfig {
        workers,
        queue: if variant == Variant::Fifo {
            QueuePolicy::Fifo
        } else {
            QueuePolicy::Priority
        },
        work_stealing: variant == Variant::Stealing,
        learning_rate: spec.lr,
        conv: spec.conv,
        memoize_fft: true,
        seed: seeds.params,
        pools: (variant != Variant::NoPool).then(|| Arc::clone(&pools)),
        checkpoint: ckpt_dir.as_ref().map(|dir| CheckpointConfig {
            dir: dir.clone(),
            every: 0,
            keep: 3,
        }),
        ..Default::default()
    };
    let t1 = Instant::now();
    let znn = Znn::new(graph, spec.out, cfg).expect("valid net");
    let znn_new_ms = t1.elapsed().as_secs_f64() * 1e3;
    let mut rig = Rig {
        trainer: spec
            .recover
            .then(|| Trainer::new(&znn, dataset(spec, input_shape, seeds.data))),
        znn: &znn,
        inputs,
        targets,
        step_losses: Vec::new(),
        built: Built {
            graph_ms,
            znn_new_ms,
            first_op_ms: 0.0,
            setup_s: 0.0,
            fastest_warm_ms: f64::INFINITY,
        },
    };
    for i in 0..WARMUP_OPS {
        let t = Instant::now();
        contained(&mut || rig.op()).unwrap_or_else(|e| panic!("warm-up op failed: {e}"));
        let ms = t.elapsed().as_secs_f64() * 1e3;
        if i == 0 {
            rig.built.first_op_ms = ms;
        }
        rig.built.fastest_warm_ms = rig.built.fastest_warm_ms.min(ms);
    }
    rig.built.setup_s = t0.elapsed().as_secs_f64();
    let out = body(&mut rig, &pools);
    drop(rig);
    drop(znn);
    if let Some(dir) = ckpt_dir {
        let _ = std::fs::remove_dir_all(dir);
    }
    (out, pools.stats().bytes_in_use())
}

/// Mean per-round loss of the engine's first op against its last: the
/// samples repeat, so training must have lowered it.
fn loss_fell(rig: &Rig<'_>) -> Check {
    let (losses, block) = match &rig.trainer {
        Some(t) => (t.history(), RECOVER_ROUNDS as usize),
        None => (&rig.step_losses[..], 1),
    };
    let mean = |s: &[f64]| s.iter().sum::<f64>() / s.len() as f64;
    let first = mean(&losses[..block]);
    let last = mean(&losses[losses.len() - block..]);
    Check::new(
        "loss_falls",
        last < first && losses.iter().all(|l| l.is_finite()),
        format!(
            "first op {first:.5}, op {} {last:.5}, every loss finite",
            losses.len() / block
        ),
    )
}

/// Round-1 loss of the sequential direct-convolution reference on the
/// same sample and the same seeded parameters.
fn reference_round1_loss(spec: &Spec, seeds: Seeds, rig: &Rig<'_>) -> f64 {
    let (graph, _) = (spec.net)();
    let mut reference = ReferenceNet::new(graph, spec.out, seeds.params).expect("valid net");
    reference.train_step(&rig.inputs, &rig.targets, Loss::Mse, spec.lr)
}

/// Forward of the trained parameters under the other convolution method.
fn other_method_check(spec: &Spec, rig: &Rig<'_>) -> Check {
    let (graph, _) = (spec.net)();
    let cfg = TrainConfig {
        workers: host::workers(),
        conv: spec.other_policy(),
        pools: Some(PoolSet::new()),
        ..Default::default()
    };
    let other = Znn::new(graph, spec.out, cfg).expect("valid net");
    other.set_params(&rig.znn.params());
    let a = rig.znn.forward(&rig.inputs);
    let b = other.forward(&rig.inputs);
    let rel = a
        .iter()
        .zip(&b)
        .map(|(a, b)| rel_diff(a, b))
        .fold(0.0, f64::max);
    Check::new(
        "forward_matches_other_method",
        rel <= 1e-4,
        format!("max relative difference {rel:.2e} (tol 1e-4)"),
    )
}

/// Loss of the very first round (the first warm-up op's first round).
fn round1_loss(rig: &Rig<'_>) -> f64 {
    match &rig.trainer {
        Some(t) => t.history()[0],
        None => rig.step_losses[0],
    }
}

/// The untraced end-to-end run.
///
/// One round = a fresh W-worker engine set up from scratch (one `setup_s`
/// sample), a block of ops on it, then a block on the one-worker engine,
/// which lives through the whole run. So all three timings are sampled
/// across the whole window, and a slow stretch of the host cannot land
/// on one of them alone.
pub fn run_e2e(spec: &Spec, args: &RunArgs) -> Outcome {
    let mut out = Outcome::default();
    let counts = OpCounts::for_seconds(args.seconds);
    let w = host::workers();
    let seeds = Seeds::derive(spec, args.seed);
    let steal = host::StealMeter::start();
    let (mut phase, mut phase1) = (Phase::default(), Phase::default());
    let mut setups = Vec::new();
    let mut leaked = 0;
    let mut rss = None;
    let mut block_w = counts.block_w;

    let (checks, leaked_1) = with_rig(spec, seeds, 1, Variant::Default, |rig1, _| {
        let block_w1 = cap_block(
            counts.block_w1,
            counts.rounds,
            rig1.built.fastest_warm_ms,
            0.4 * args.seconds,
            "one-worker phase",
        );
        for round in 0..counts.rounds {
            let ((), l) = with_rig(spec, seeds, w, Variant::Default, |rig, _| {
                setups.push(rig.built.setup_s);
                if round == 0 {
                    block_w = cap_block(
                        block_w,
                        counts.rounds,
                        rig.built.fastest_warm_ms,
                        0.6 * args.seconds,
                        "W-worker phase",
                    );
                }
                run_block(&mut phase, block_w, &mut || rig.op());
                run_block(&mut phase1, block_w1, &mut || rig1.op());
                // memory is read while the first two engines are all there
                // is: later engines reuse freed memory to a varying degree
                if round == 0 {
                    rss = host::peak_rss_mb();
                }
            });
            leaked += l;
        }
        vec![
            Check::close(
                "round1_loss_matches_baseline",
                round1_loss(rig1),
                reference_round1_loss(spec, seeds, rig1),
                1e-4,
            ),
            other_method_check(spec, rig1),
            loss_fell(rig1),
        ]
    });
    leaked += leaked_1;
    out.absorb(&phase);
    out.absorb(&phase1);

    out.put("op_ms_p10", phase.p10());
    out.put("ops_per_s", phase.rate());
    out.put("op_ms_p10_w1", phase1.p10());
    out.put("setup_s", stats::quantile(&setups, 0.25));
    out.put("peak_rss_mb", rss.expect("VmHWM needs /proc/self/status"));
    out.checks = checks;
    out.checks.push(Check::new(
        "pooled_bytes_leased_at_exit",
        leaked == 0,
        format!("{leaked} B still leased after the engines were dropped"),
    ));
    out.steal_share = steal.share();
    out.disturbed_share = stats::disturbed_share(&phase.ms);
    out.notes.push(format!(
        "{} rounds of {block_w} ops at W={w} (whole-phase p10 {:.2} ms, p50 {:.2} ms) and {} at 1 worker; set-ups {:?} ms",
        counts.rounds,
        stats::p10(&phase.ms),
        stats::median(&phase.ms),
        phase1.ms.len() / counts.rounds,
        setups.iter().map(|s| (s * 1e3).round()).collect::<Vec<_>>(),
    ));
    out
}

/// p10 of `n` ops on a freshly built variant engine.
fn variant_p10(spec: &Spec, seeds: Seeds, variant: Variant, n: usize) -> f64 {
    with_rig(spec, seeds, host::workers(), variant, |rig, _| {
        run_phase(n, SEGMENT_OPS, &mut || rig.op()).p10()
    })
    .0
}

/// Largest node image of the net (the input) and a mid-net sum node.
fn shapes_of(graph: &Graph, out: Vec3) -> (Vec3, Vec<Vec3>) {
    let input = shapes::required_input_shape(graph, out).expect("valid net");
    let map = shapes::infer_shapes(graph, input).expect("valid net");
    (
        input,
        (0..graph.node_count()).map(|i| map[&NodeId(i)]).collect(),
    )
}

/// The traced run: the same ops with spans around them, plus replays,
/// variants and direct layer measurements.
pub fn run_traced(spec: &Spec, args: &RunArgs, tracer: &Tracer) -> Outcome {
    let mut out = Outcome::default();
    let scale = args.seconds / crate::manifest::RUN_SECONDS as f64;
    let effort = scale.clamp(0.1, 1.0);
    let blocks = ((10.0 * scale).round() as usize).max(2);
    let n_w1 = ((50.0 * scale).round() as usize).max(10);
    let n_variant = ((50.0 * scale).round() as usize).max(10);
    let w = host::workers();
    let off = Tracer::new(false);
    let seeds = Seeds::derive(spec, args.seed);
    let steal = host::StealMeter::start();
    let (graph, info) = (spec.net)();
    let (input_shape, node_shape) = shapes_of(&graph, spec.out);

    // --- the engine at W workers: traced and untraced ops interleaved,
    // so both see the same neighbours
    let traced_op = |t: &Tracer, rig: &mut Rig<'_>| {
        t.next_op();
        let name = if rig.trainer.is_some() {
            "core.run_recoverable"
        } else {
            "core.train_step"
        };
        t.span("op", || t.span(name, || rig.op()))
    };
    let ((p10_w, engine_round1, recover, fell), leaked_w) =
        with_rig(spec, seeds, w, Variant::Default, |rig, pools| {
            let s0 = rig.znn.stats();
            let pool0 = PoolCounters::read(pools);
            let mut plain = Phase::default();
            let mut traced = Phase::default();
            for _ in 0..blocks {
                for (t, phase) in [(&off, &mut plain), (tracer, &mut traced)] {
                    run_block(phase, SEGMENT_OPS, &mut || traced_op(t, rig));
                }
            }
            let s1 = rig.znn.stats();
            out.absorb(&plain);
            out.absorb(&traced);
            let ops_run = (plain.attempted + traced.attempted) as f64;
            let p10_w = plain.p10();

            out.put("graph.build_ms", rig.built.graph_ms);
            out.put("graph.edges", graph.edge_count() as f64);
            out.put("graph.conv_edges", micro::conv_edges(&graph) as f64);
            out.put("core.znn_new_ms", rig.built.znn_new_ms);
            out.put("core.first_op_ms", rig.built.first_op_ms);
            out.put_op_distribution(&plain);
            out.put("trace.overhead_share", traced.p10() / p10_w - 1.0);

            out.put(
                "sched.tasks_op",
                (s1.tasks_executed - s0.tasks_executed) as f64 / ops_run,
            );
            let forces = |s: &znn_core::RoundStats| {
                (s.force_already_done + s.force_ran_inline + s.force_delegated) as f64
            };
            let forced = forces(&s1) - forces(&s0);
            if forced > 0.0 {
                out.put(
                    "sched.force_inline_share",
                    (s1.force_ran_inline - s0.force_ran_inline) as f64 / forced,
                );
                out.put(
                    "sched.force_delegated_share",
                    (s1.force_delegated - s0.force_delegated) as f64 / forced,
                );
            }
            out.put("sched.peak_priorities", s1.peak_distinct_priorities as f64);
            out.put_alloc(pools, &pool0, ops_run);
            if spec.method() == ConvMethod::Fft {
                out.put(
                    "core.memo_spectrum_mb",
                    rig.znn.memoized_spectrum_bytes() as f64 / MIB,
                );
            }

            let inputs = rig.inputs.clone();
            let fwd_ms: Vec<f64> = (0..(30.0 * scale).max(10.0) as usize)
                .map(|_| {
                    let t0 = Instant::now();
                    std::hint::black_box(rig.znn.forward(&inputs));
                    t0.elapsed().as_secs_f64() * 1e3
                })
                .collect();
            out.put("core.fwd_only_ms_p10", stats::p10(&fwd_ms));
            let recover = spec
                .recover
                .then(|| recover_facts(spec, seeds, rig, tracer, n_variant));
            (p10_w, round1_loss(rig), recover, loss_fell(rig))
        });

    // --- the same op at one worker
    let (phase1, leaked_1) = with_rig(spec, seeds, 1, Variant::Default, |rig, _| {
        run_phase(n_w1, SEGMENT_OPS, &mut || rig.op())
    });
    out.absorb(&phase1);
    let p10_w1 = phase1.p10();
    out.put("core.scaling_eff", p10_w1 / (w as f64 * p10_w));

    // --- scheduler and allocator alternatives, priced end to end
    out.put(
        "sched.stealing_over_priority",
        variant_p10(spec, seeds, Variant::Stealing, n_variant) / p10_w,
    );
    out.put(
        "sched.fifo_over_priority",
        variant_p10(spec, seeds, Variant::Fifo, n_variant) / p10_w,
    );
    out.put(
        "alloc.nopool_over_pooled",
        variant_p10(spec, seeds, Variant::NoPool, n_variant) / p10_w,
    );

    // --- the op replayed on one thread, layer call by layer call
    let rounds_per_op = if spec.recover {
        RECOVER_ROUNDS as f64
    } else {
        1.0
    };
    let pools = PoolSet::new();
    let mut replay = TrainReplay::new(
        &graph,
        spec.out,
        seeds.params,
        spec.method(),
        spec.lr,
        Arc::clone(&pools),
        &off,
    );
    let (inputs, targets) = sample(spec, input_shape, seeds.data);
    let replay_round1 = replay.train_step(&inputs, &targets);
    out.checks.push(Check::close(
        "replay_loss_matches_engine",
        engine_round1,
        replay_round1,
        1e-4,
    ));
    replay.train_step(&inputs, &targets);
    replay.tracer = tracer;
    let replays = ((10.0 * scale).round() as usize).max(4);
    for _ in 0..replays {
        tracer.next_op();
        replay.work = Default::default();
        tracer.span("replay", || replay.train_step(&inputs, &targets));
    }
    put_layer_metrics(
        &mut out,
        tracer,
        &replay.work,
        &replay.fft,
        rounds_per_op,
        // the recoverable driver's own per-op work: sampling, the
        // per-round last-good capture, one durable snapshot
        recover.as_ref().map_or(0.0, |r| r.driver_ms_op),
        p10_w1,
    );
    if spec.method() == ConvMethod::Fft {
        out.put(
            "fft.fanout_speedup",
            micro::fft_fanout_speedup(input_shape, w),
        );
    }

    // --- direct measurements of single layers at this net's sizes
    let first_sum = first_conv_out(&graph, &node_shape);
    out.put(
        "simd.transfer_ns_elem",
        micro::simd_transfer_ns_elem(first_sum),
    );
    if spec.method() == ConvMethod::Direct {
        out.put("simd.fma_ns_elem", micro::simd_fma_ns_elem(first_sum));
    }
    let (dispatch_us, task_us) = micro::sched_empty_tasks(w, effort);
    out.put("sched.dispatch_us", dispatch_us);
    out.put("sched.task_overhead_us", task_us);
    let widest_fan_in = graph
        .nodes()
        .iter()
        .map(|n| n.in_edges.len())
        .max()
        .unwrap_or(1);
    out.put(
        "sched.sum_add_us",
        micro::sum_add_us(first_sum, w, widest_fan_in),
    );
    out.put("alloc.lease_ns", micro::lease_ns(first_sum, 1, effort));
    out.put("alloc.lease_ns_tw", micro::lease_ns(first_sum, w, effort));

    let machine = out.put_host();
    let plan = micro::plan_facts(&graph, spec.out, spec.method(), w, machine);
    out.put("plan.plan_ms", plan.plan_ms);
    out.put("plan.fft_edge_share", plan.fft_edge_share);
    out.put(
        "plan.predicted_over_measured",
        plan.predicted_round_ms * rounds_per_op / p10_w1,
    );
    if input_shape[0] > 1 {
        let theory = micro::theory_facts(&info, input_shape[0], spec.method(), w);
        out.put("theory.flops_op", theory.gflop_round * rounds_per_op);
        out.put(
            "theory.achieved_gflops",
            theory.gflop_round * rounds_per_op / (p10_w1 / 1e3),
        );
        out.put("theory.brent_speedup_bound", theory.brent_bound);

        // the layer-at-a-time comparator on the same net and sample
        let (graph, _) = (spec.net)();
        let mut layerwise = LayerwiseNet::new(graph, spec.out, seeds.params).expect("valid net");
        let ms: Vec<f64> = (0..((12.0 * scale).round() as usize).max(4))
            .map(|_| {
                let t0 = Instant::now();
                std::hint::black_box(layerwise.train_step(&inputs, &targets, Loss::Mse, spec.lr));
                t0.elapsed().as_secs_f64() * 1e3
            })
            .collect();
        out.put("baseline.layerwise_ms_p10", stats::p10(&ms));
    }
    if let Some(r) = recover {
        out.put("core.data_sample_ms", r.data_sample_ms);
        out.put("core.params_snapshot_ms", r.params_snapshot_ms);
        out.put("core.ckpt_encode_ms", r.ckpt_encode_ms);
        out.put("core.ckpt_write_ms_p10", r.ckpt_write_ms_p10);
        out.put("core.ckpt_restore_ms", r.ckpt_restore_ms);
        out.put("core.ckpt_bytes", r.ckpt_bytes);
        out.put("core.recover_overhead_share", r.recover_overhead_share);
    }

    out.checks.push(fell);
    drop(replay);
    let leaked = leaked_w + leaked_1 + pools.stats().bytes_in_use();
    out.checks.push(Check::new(
        "pooled_bytes_leased_at_exit",
        leaked == 0,
        format!("{leaked} B still leased after the engines were dropped"),
    ));
    out.steal_share = steal.share();
    out.notes.push(format!(
        "{blocks} x {SEGMENT_OPS} traced and as many untraced ops at W={w}, {} ops at 1 worker (p10 {p10_w1:.2} ms), {replays} replays, {} spans",
        phase1.ms.len(),
        tracer.len()
    ));
    out
}

/// Output shape of the first convolution layer — the first sum node,
/// the largest image the scheduler's sums and most leases handle.
fn first_conv_out(graph: &Graph, node_shape: &[Vec3]) -> Vec3 {
    graph
        .edges()
        .iter()
        .find(|e| matches!(e.op, EdgeOp::Conv { .. }))
        .map(|e| node_shape[e.to.0])
        .expect("the net has a convolution")
}

struct RecoverFacts {
    data_sample_ms: f64,
    params_snapshot_ms: f64,
    ckpt_encode_ms: f64,
    ckpt_write_ms_p10: f64,
    ckpt_restore_ms: f64,
    ckpt_bytes: f64,
    recover_overhead_share: f64,
    /// Per op: ten samples, eleven last-good captures, one snapshot.
    driver_ms_op: f64,
}

/// What `run_recoverable` adds around its rounds, each piece called
/// directly with a span around it, and the whole priced against plain
/// `Trainer::run` on the same engine.
fn recover_facts(
    spec: &Spec,
    seeds: Seeds,
    rig: &mut Rig<'_>,
    tracer: &Tracer,
    n: usize,
) -> RecoverFacts {
    let znn = rig.znn;
    let fastest = |reps: usize, f: &mut dyn FnMut()| {
        (0..reps)
            .map(|_| {
                let t0 = Instant::now();
                f();
                t0.elapsed().as_secs_f64() * 1e3
            })
            .fold(f64::INFINITY, f64::min)
    };
    let mut data = dataset(spec, znn.input_shape(), seeds.data);
    let data_sample_ms = fastest(20, &mut || {
        tracer.span("core.data_sample", || std::hint::black_box(data.sample(3)));
    });
    let params_snapshot_ms = fastest(20, &mut || {
        tracer.span("core.params_snapshot", || {
            std::hint::black_box((znn.params(), znn.optimizer_state()));
        });
    });
    let ckpt = Checkpoint {
        round: znn.round(),
        params: znn.params(),
        velocities: znn.optimizer_state(),
    };
    let mut bytes = 0;
    let ckpt_encode_ms = fastest(20, &mut || {
        bytes = tracer.span("core.ckpt_encode", || ckpt.encode()).len();
    });
    let dir = scratch_dir("ckpt-probe");
    let writes: Vec<f64> = (0..20)
        .map(|i| {
            let c = Checkpoint {
                round: i,
                ..ckpt.clone()
            };
            let t0 = Instant::now();
            tracer
                .span("core.ckpt_write", || c.write_atomic(&dir, 3))
                .expect("checkpoint write inside the target directory");
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    let ckpt_restore_ms = fastest(10, &mut || {
        let restored = tracer.span("core.ckpt_restore", || latest_valid(&dir));
        assert!(
            matches!(restored, Ok(Some(_))),
            "the snapshot just written must restore"
        );
    });
    let _ = std::fs::remove_dir_all(&dir);
    let ckpt_write_ms_p10 = stats::p10(&writes);

    // plain Trainer::run blocks vs recoverable blocks, interleaved on
    // this engine
    let mut plain_trainer = Trainer::new(znn, dataset(spec, znn.input_shape(), seeds.data));
    let (mut plain_ms, mut recover_ms) = (Vec::new(), Vec::new());
    for _ in 0..n {
        let t0 = Instant::now();
        plain_trainer.run(RECOVER_ROUNDS, RECOVER_ROUNDS, |_| {});
        plain_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        let t0 = Instant::now();
        let _ = contained(&mut || rig.op());
        recover_ms.push(t0.elapsed().as_secs_f64() * 1e3);
    }
    let rounds = RECOVER_ROUNDS as f64;
    RecoverFacts {
        data_sample_ms,
        params_snapshot_ms,
        ckpt_encode_ms,
        ckpt_write_ms_p10,
        ckpt_restore_ms,
        ckpt_bytes: bytes as f64,
        recover_overhead_share: stats::p10(&recover_ms) / stats::p10(&plain_ms) - 1.0,
        driver_ms_op: rounds * data_sample_ms
            + (rounds + 1.0) * params_snapshot_ms
            + ckpt_write_ms_p10,
    }
}
