//! The serving workload, `serve3d_dense`: `scalability_net_3d(4)` as a
//! `DenseNet` behind `znn_serve::Server`.

use crate::common::{
    cap_block, cpu_since, rel_diff, Check, OpCounts, Outcome, Phase, PoolCounters, RunArgs, MIB,
    SEGMENT_OPS,
};
use crate::host;
use crate::micro;
use crate::replay::{put_layer_metrics, DenseReplay};
use crate::stats;
use crate::trace::Tracer;
use std::collections::VecDeque;
use std::ops::ControlFlow;
use std::sync::Arc;
use std::time::{Duration, Instant};
use znn_alloc::PoolSet;
use znn_core::{ConvPolicy, DenseConfig, DenseNet};
use znn_graph::builder::scalability_net_3d;
use znn_graph::Graph;
use znn_serve::{ServeConfig, ServeStats, Server};
use znn_tensor::{ops, Image, Vec3};

/// Request volume: 38 x 38 x 31 voxels, 13 x 13 x 6 outputs (field of
/// view 26³), evaluated as four halo'd blocks of at most 8³ outputs —
/// two full-size and two edge blocks, so both window geometries occur.
const VOLUME: Vec3 = Vec3([38, 38, 31]);
const BLOCK: Vec3 = Vec3([8, 8, 8]);
/// Distinct request volumes cycled through.
const VOLUMES: usize = 4;
/// Queue bound; far above W so the closed loop never sheds, low enough
/// that the open-loop segment can.
const QUEUE: usize = 64;

fn net() -> Graph {
    scalability_net_3d(4).0
}

fn dense_config(pools: Option<Arc<PoolSet>>) -> DenseConfig {
    DenseConfig {
        conv: ConvPolicy::ForceFft,
        pools,
        fft_threads: 1,
        memoize_spectra: true,
        planner: None,
    }
}

fn volumes(seed: u64) -> Vec<Image> {
    (0..VOLUMES as u64)
        .map(|i| ops::random(VOLUME, seed ^ i << 40))
        .collect()
}

struct Rig {
    net: Arc<DenseNet>,
    server: Server,
    volumes: Vec<Image>,
    pools: Arc<PoolSet>,
    graph_ms: f64,
    new_ms: f64,
    first_op_ms: f64,
    fastest_warm_ms: f64,
    setup_s: f64,
}

/// One reply, kept for the correctness pass.
struct Reply {
    volume: usize,
    image: Image,
}

/// Inputs from `seed`, graph, `DenseNet::new` on a fresh `PoolSet`,
/// `Server::start` with `workers` workers, and warm-up volumes through
/// the server until plans, pools and kernel spectra are filled.
fn build(seed: u64, workers: usize) -> Rig {
    let t0 = Instant::now();
    let volumes = volumes(seed);
    let graph = net();
    let graph_ms = t0.elapsed().as_secs_f64() * 1e3;
    let pools = PoolSet::new();
    let t1 = Instant::now();
    let net = Arc::new(
        DenseNet::new(graph, seed, dense_config(Some(Arc::clone(&pools)))).expect("valid net"),
    );
    let server = Server::start(
        Arc::clone(&net),
        ServeConfig {
            workers,
            queue_capacity: QUEUE,
            admission_watermark: 0,
            max_batch: 1,
            block: BLOCK,
            degrade_watermark: None,
            faults: None,
            ..Default::default()
        },
    );
    let new_ms = t1.elapsed().as_secs_f64() * 1e3;
    let mut rig = Rig {
        net,
        server,
        volumes,
        pools,
        graph_ms,
        new_ms,
        first_op_ms: 0.0,
        fastest_warm_ms: f64::INFINITY,
        setup_s: 0.0,
    };
    // the first volume builds plans and kernel spectra; then every
    // worker must have met every window geometry (each volume has all of
    // them): two volumes per worker, all workers busy
    let (mut sink, mut warm) = (Vec::new(), Phase::default());
    let off = Tracer::new(false);
    closed_loop(&rig, 1, 1, &off, &mut sink, &mut warm);
    rig.first_op_ms = warm.ms.first().copied().unwrap_or(f64::NAN);
    closed_loop(&rig, 2 * workers, workers, &off, &mut sink, &mut warm);
    assert!(
        warm.failed == 0,
        "warm-up request failed: {:?}",
        warm.first_failure
    );
    rig.fastest_warm_ms = warm.ms[1..].iter().copied().fold(f64::INFINITY, f64::min);
    rig.setup_s = t0.elapsed().as_secs_f64();
    rig
}

/// One block of `n` requests into `phase`, `in_flight` at a time from
/// this one thread: a reply is collected, then the next request
/// submitted. Latency runs from `submit` to the instant the worker
/// fulfilled the ticket. Requests are recorded as spans when `tracer`
/// is on. Returns the mean queue depth seen right after each submit.
fn closed_loop(
    rig: &Rig,
    n: usize,
    in_flight: usize,
    tracer: &Tracer,
    replies: &mut Vec<Reply>,
    phase: &mut Phase,
) -> f64 {
    let cpu0 = host::process_cpu_s();
    let start = Instant::now();
    let mut results = Vec::with_capacity(n);
    let mut done_at_s = Vec::with_capacity(n);
    let mut pending = VecDeque::new();
    let mut submitted = 0;
    let mut depth_sum = 0;
    let mut submit = |submitted: &mut usize,
                      pending: &mut VecDeque<_>,
                      results: &mut Vec<_>,
                      done_at_s: &mut Vec<_>| {
        let volume = *submitted % rig.volumes.len();
        *submitted += 1;
        let op = tracer.next_op();
        let at = Instant::now();
        match tracer.span("serve.submit", || {
            rig.server.submit(rig.volumes[volume].clone(), None)
        }) {
            Ok(ticket) => pending.push_back((ticket, at, volume, op)),
            Err(why) => {
                results.push((Err(why.to_string()), 0.0));
                done_at_s.push(start.elapsed().as_secs_f64());
            }
        }
        depth_sum += rig.server.queue_depth();
    };
    while submitted < n.min(in_flight) {
        submit(&mut submitted, &mut pending, &mut results, &mut done_at_s);
    }
    while let Some((ticket, at, volume, op)) = pending.pop_front() {
        let (reply, done) = tracer.span("serve.wait", || ticket.wait_timed());
        tracer.record("serve.request", at, done, op);
        let ms = done.duration_since(at).as_secs_f64() * 1e3;
        done_at_s.push(done.duration_since(start).as_secs_f64());
        results.push((
            reply
                .map(|image| {
                    // a plain copy: the pooled reply goes back to the pool
                    // now, so bytes leased at exit count only what the
                    // server leaks
                    let image = Image::from_vec(image.shape(), image.as_slice().to_vec());
                    replies.push(Reply { volume, image });
                    0.0
                })
                .map_err(|why| why.to_string()),
            ms,
        ));
        if submitted < n {
            submit(&mut submitted, &mut pending, &mut results, &mut done_at_s);
        }
    }
    phase.record_block(
        results,
        &done_at_s,
        start.elapsed().as_secs_f64(),
        cpu_since(cpu0),
    );
    depth_sum as f64 / submitted.max(1) as f64
}

/// Every reply against whole-volume `DenseNet::forward` on a separate
/// net with the same seeded parameters.
fn replies_match_whole_volume(seed: u64, volumes: &[Image], replies: &[Reply]) -> Check {
    let whole = DenseNet::new(net(), seed, dense_config(Some(PoolSet::new()))).expect("valid net");
    let expected: Vec<Image> = volumes.iter().map(|v| whole.forward(v)).collect();
    let worst = replies
        .iter()
        .map(|r| rel_diff(&expected[r.volume], &r.image))
        .fold(0.0, f64::max);
    Check::new(
        "replies_match_whole_volume",
        worst <= 1e-4 && !replies.is_empty(),
        format!(
            "{} replies, max relative difference {worst:.2e} (tol 1e-4)",
            replies.len()
        ),
    )
}

/// `submitted = completed + rejected`, summed over the servers of a run.
fn accounting_check<'a>(servers: impl IntoIterator<Item = &'a ServeStats>) -> Check {
    let (mut submitted, mut completed, mut rejected) = (0, 0, 0);
    for s in servers {
        submitted += s.submitted;
        completed += s.completed;
        rejected += s.shed_overload
            + s.deadline_missed
            + s.lease_refused
            + s.panicked
            + s.invalid
            + s.shutdown_rejected;
    }
    Check::new(
        "submitted_eq_completed_plus_rejected",
        submitted == completed + rejected,
        format!("submitted {submitted} = completed {completed} + rejected {rejected}"),
    )
}

fn leak_check(leaked: usize) -> Check {
    Check::new(
        "pooled_bytes_leased_at_exit",
        leaked == 0,
        format!("{leaked} B still leased after the servers shut down"),
    )
}

/// Shuts the rig down; returns final stats and pooled bytes still leased.
fn teardown(rig: Rig) -> (ServeStats, usize) {
    let Rig {
        net, server, pools, ..
    } = rig;
    let stats = server.shutdown();
    drop(net);
    (stats, pools.stats().bytes_in_use())
}

/// The untraced end-to-end run.
///
/// One round = a fresh W-worker server set up from scratch (one `setup_s`
/// sample), a block of volumes through it, then a block through the
/// one-worker server, which lives through the whole run (its workers
/// sleep on their queue meanwhile). So all three timings are sampled
/// across the whole window.
pub fn run_e2e(args: &RunArgs) -> Outcome {
    let mut out = Outcome::default();
    let counts = OpCounts::for_seconds(args.seconds);
    let w = host::workers();
    let steal = host::StealMeter::start();
    let off = Tracer::new(false);
    let mut replies = Vec::new();
    let (mut phase, mut phase1) = (Phase::default(), Phase::default());
    let mut setups = Vec::new();
    let mut stats_w = Vec::new();
    let mut leaked = 0;
    let mut rss = None;

    let rig1 = build(args.seed, 1);
    let block_w1 = cap_block(
        counts.block_w1,
        counts.rounds,
        rig1.fastest_warm_ms,
        0.4 * args.seconds,
        "one-worker phase",
    );
    let mut block_w = counts.block_w;
    for round in 0..counts.rounds {
        let rig = build(args.seed, w);
        setups.push(rig.setup_s);
        if round == 0 {
            // W requests are served at once, so n requests take n/W latencies
            block_w = cap_block(
                block_w,
                counts.rounds,
                rig.fastest_warm_ms / w as f64,
                0.6 * args.seconds,
                "W-worker phase",
            );
        }
        closed_loop(&rig, block_w, w, &off, &mut replies, &mut phase);
        closed_loop(&rig1, block_w1, 1, &off, &mut replies, &mut phase1);
        // memory is read while the first two servers are all there is:
        // later ones reuse freed memory to a varying degree
        if round == 0 {
            rss = host::peak_rss_mb();
        }
        let (stats, l) = teardown(rig);
        stats_w.push(stats);
        leaked += l;
    }
    out.absorb(&phase);
    out.absorb(&phase1);
    let volumes = rig1.volumes.clone();
    let (stats_1, l) = teardown(rig1);
    leaked += l;

    out.put("op_ms_p10", phase.p10());
    out.put("ops_per_s", phase.rate());
    out.put("op_ms_p10_w1", phase1.p10());
    out.put("setup_s", stats::quantile(&setups, 0.25));
    out.put("peak_rss_mb", rss.expect("VmHWM needs /proc/self/status"));
    out.checks
        .push(replies_match_whole_volume(args.seed, &volumes, &replies));
    out.checks
        .push(accounting_check(stats_w.iter().chain([&stats_1])));
    out.checks.push(leak_check(leaked));
    out.steal_share = steal.share();
    out.disturbed_share = stats::disturbed_share(&phase.ms);
    out.notes.push(format!(
        "{} rounds of {block_w} volumes at W={w} in flight (whole-phase p10 {:.2} ms, p50 {:.2} ms) and {block_w1} at 1 worker / 1 in flight; set-ups {:?} ms",
        counts.rounds,
        stats::p10(&phase.ms),
        stats::median(&phase.ms),
        setups.iter().map(|s| (s * 1e3).round()).collect::<Vec<_>>(),
    ));
    out
}

/// Open loop: `n` requests due every `1/rate` s whether or not earlier
/// ones are done. Latency runs from each request's *due* time, so a
/// stall is charged to every request it delays.
struct OpenLoop {
    latency_ms: Vec<f64>,
    late_ms_max: f64,
    attempted: usize,
    failed: usize,
}

fn open_loop(rig: &Rig, n: usize, rate: f64) -> OpenLoop {
    let start = Instant::now();
    let mut tickets = Vec::new();
    let mut result = OpenLoop {
        latency_ms: Vec::new(),
        late_ms_max: 0.0,
        attempted: n,
        failed: 0,
    };
    for i in 0..n {
        let due = start + Duration::from_secs_f64(i as f64 / rate);
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        let late = Instant::now().saturating_duration_since(due).as_secs_f64() * 1e3;
        result.late_ms_max = result.late_ms_max.max(late);
        match rig.server.submit(
            rig.volumes[i % rig.volumes.len()].clone(),
            Some(Duration::from_secs(2)),
        ) {
            Ok(t) => tickets.push((t, due)),
            Err(_) => result.failed += 1,
        }
    }
    for (ticket, due) in tickets {
        match ticket.wait_timed() {
            (Ok(_), done) => result
                .latency_ms
                .push(done.duration_since(due).as_secs_f64() * 1e3),
            (Err(_), _) => result.failed += 1,
        }
    }
    result
}

/// `DenseNet::forward_blocked` called directly on this thread.
fn direct_blocked(net: &DenseNet, volume: &Image) -> Image {
    net.forward_blocked(volume, BLOCK, &mut |_| ControlFlow::Continue(()))
        .expect("no cancellation requested")
}

/// What the server adds to an evaluation: submit -> fulfil latency
/// (fast decile) of a request whose evaluation is next to nothing — a
/// one-edge, one-tap net on a 2³ volume behind the same one-worker
/// server configuration. That is admission, queue, worker wake-up,
/// `catch_unwind`, and the ticket hand-off. (Differencing the served
/// and the direct latency of a real volume cannot resolve this: two
/// ~55 ms evaluations on different cores differ by more than the
/// hand-off costs, in either direction.)
fn queue_overhead_ms() -> f64 {
    let graph = znn_graph::NetBuilder::new("handoff", 1)
        .conv(1, Vec3::one())
        .build()
        .expect("valid net")
        .0;
    let config = DenseConfig {
        conv: ConvPolicy::ForceDirect,
        ..dense_config(Some(PoolSet::new()))
    };
    let net = Arc::new(DenseNet::new(graph, 1, config).expect("valid net"));
    let server = Server::start(
        net,
        ServeConfig {
            workers: 1,
            queue_capacity: QUEUE,
            max_batch: 1,
            block: BLOCK,
            ..Default::default()
        },
    );
    let volume = ops::random(Vec3::cube(2), 1);
    let ms: Vec<f64> = (0..2000)
        .map(|_| {
            let at = Instant::now();
            let ticket = server
                .submit(volume.clone(), None)
                .expect("an idle server admits");
            let (reply, done) = ticket.wait_timed();
            reply.expect("a trivial request completes");
            done.duration_since(at).as_secs_f64() * 1e3
        })
        .collect();
    stats::p10(&ms)
}

fn time_ms<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t0 = Instant::now();
    let r = f();
    (r, t0.elapsed().as_secs_f64() * 1e3)
}

/// The traced run.
pub fn run_traced(args: &RunArgs, tracer: &Tracer) -> Outcome {
    let mut out = Outcome::default();
    let scale = args.seconds / crate::manifest::RUN_SECONDS as f64;
    let effort = scale.clamp(0.1, 1.0);
    let n_closed = ((240.0 * scale).round() as usize).max(24);
    let n_w1 = ((60.0 * scale).round() as usize).max(10);
    let n_open = ((100.0 * scale).round() as usize).max(10);
    let n_direct = ((20.0 * scale).round() as usize).max(5);
    let w = host::workers();
    let steal = host::StealMeter::start();
    let off = Tracer::new(false);
    let mut replies = Vec::new();
    let graph = net();

    // --- W workers, W in flight; every other request carries spans
    let rig = build(args.seed, w);
    out.put("graph.build_ms", rig.graph_ms);
    out.put("graph.edges", graph.edge_count() as f64);
    out.put("graph.conv_edges", micro::conv_edges(&graph) as f64);
    out.put("core.znn_new_ms", rig.new_ms);
    out.put("core.first_op_ms", rig.first_op_ms);
    let pool0 = PoolCounters::read(&rig.pools);
    let mut depth_means = Vec::new();
    let mut plain = Phase::default();
    let mut traced = Phase::default();
    // traced and untraced blocks alternate, so both see the same neighbours
    let block = (SEGMENT_OPS * 2).max(w);
    for _ in 0..(n_closed / 2 / block).max(1) {
        for (t, phase) in [(&off, &mut plain), (tracer, &mut traced)] {
            depth_means.push(closed_loop(&rig, block, w, t, &mut replies, phase));
        }
    }
    out.absorb(&plain);
    out.absorb(&traced);
    let ops_run = (plain.ms.len() + traced.ms.len()) as f64;
    let p10_w = plain.p10();
    let capacity = (plain.ms.len() + traced.ms.len()) as f64 / (plain.wall_s + traced.wall_s);
    out.put_op_distribution(&plain);
    out.put("trace.overhead_share", traced.p10() / p10_w - 1.0);
    // every closed-loop request, traced or not (tracing costs nothing here)
    let all_ms: Vec<f64> = plain.ms.iter().chain(&traced.ms).copied().collect();
    let sorted = stats::sorted(&all_ms);
    out.put("serve.latency_ms_p50", stats::quantile_sorted(&sorted, 0.5));
    out.put("serve.latency_ms_p90", stats::quantile_sorted(&sorted, 0.9));
    if sorted.len() >= 1000 {
        // a percentile is reported only with ten samples beyond it
        out.put(
            "serve.latency_ms_p99",
            stats::quantile_sorted(&sorted, 0.99),
        );
    }
    out.put("serve.depth_mean", stats::mean(&depth_means));
    out.put_alloc(&rig.pools, &pool0, ops_run);
    out.put(
        "core.dense_spectra_mb",
        rig.net.memoized_spectrum_bytes() as f64 / MIB,
    );

    // --- open loop at 0.7 x the capacity just measured
    let open = open_loop(&rig, n_open, 0.7 * capacity);
    out.attempted += open.attempted;
    out.failed += open.failed;
    if !open.latency_ms.is_empty() {
        out.put("serve.open_latency_ms_p50", stats::median(&open.latency_ms));
        out.put(
            "serve.open_latency_ms_p90",
            stats::quantile(&open.latency_ms, 0.9),
        );
    }
    out.put("serve.open_late_ms_max", open.late_ms_max);
    let volumes = rig.volumes.clone();
    let (stats_w, leaked_w) = teardown(rig);
    out.put("serve.shed_share", stats_w.shed_rate());
    out.put("serve.deadline_miss_share", stats_w.deadline_miss_rate());
    out.put("serve.degraded_batches", stats_w.degraded_batches as f64);

    // --- one worker, one in flight, interleaved with direct calls of
    // the same evaluation on this thread
    let rig = build(args.seed, 1);
    let mut phase1 = Phase::default();
    let mut direct_ms = Vec::new();
    for _ in 0..n_w1.div_ceil(SEGMENT_OPS) {
        closed_loop(&rig, SEGMENT_OPS, 1, &off, &mut replies, &mut phase1);
        for volume in rig.volumes.iter().cycle().take(SEGMENT_OPS / 2) {
            direct_ms.push(
                time_ms(|| {
                    tracer.span("core.dense_forward_blocked", || {
                        direct_blocked(&rig.net, volume)
                    })
                })
                .1,
            );
        }
    }
    out.absorb(&phase1);
    let p10_w1 = phase1.p10();
    out.put("serve.queue_overhead_ms", queue_overhead_ms());
    // throughput at one worker is one volume per latency
    out.put(
        "serve.worker_scaling_eff",
        capacity / (w as f64 * 1e3 / p10_w1),
    );
    let whole_ms: Vec<f64> = (0..n_direct)
        .map(|i| {
            time_ms(|| {
                tracer.span("core.dense_forward", || {
                    rig.net.forward(&rig.volumes[i % VOLUMES])
                })
            })
            .1
        })
        .collect();
    out.put("core.dense_fwd_ms_p10", stats::p10(&whole_ms));
    out.put(
        "core.dense_blocked_over_whole",
        stats::p10(&direct_ms) / stats::p10(&whole_ms),
    );
    let params = rig.net.params().clone();
    let (stats_1, leaked_1) = teardown(rig);

    // --- the same evaluation without pools
    let unpooled = DenseNet::new(net(), args.seed, dense_config(None)).expect("valid net");
    direct_blocked(&unpooled, &volumes[0]);
    let unpooled_ms: Vec<f64> = (0..n_direct)
        .map(|i| time_ms(|| direct_blocked(&unpooled, &volumes[i % VOLUMES])).1)
        .collect();
    out.put(
        "alloc.nopool_over_pooled",
        stats::p10(&unpooled_ms) / stats::p10(&direct_ms),
    );
    drop(unpooled);

    // --- one volume replayed layer call by layer call
    let pools = PoolSet::new();
    let mut replay = DenseReplay::new(&graph, &params, Arc::clone(&pools), &off);
    let replayed = replay.forward_blocked(&volumes[0], BLOCK);
    let whole = DenseNet::new(net(), args.seed, dense_config(Some(PoolSet::new())))
        .expect("valid net")
        .forward(&volumes[0]);
    let diff = rel_diff(&whole, &replayed);
    out.checks.push(Check::new(
        "replay_matches_whole_volume",
        diff <= 1e-4,
        format!("relative difference {diff:.2e} (tol 1e-4)"),
    ));
    drop((whole, replayed));
    replay.tracer = tracer;
    let replays = n_direct;
    for volume in volumes.iter().cycle().take(replays) {
        tracer.next_op();
        replay.work = Default::default();
        tracer.span("replay", || {
            std::hint::black_box(replay.forward_blocked(volume, BLOCK))
        });
    }
    put_layer_metrics(
        &mut out,
        tracer,
        &replay.work,
        &replay.fft,
        1.0,
        0.0,
        p10_w1,
    );
    drop(replay);

    // --- direct measurements at the block-window size
    let window = BLOCK + (shapes_fov(&graph) - Vec3::one());
    out.put(
        "simd.transfer_ns_elem",
        micro::simd_transfer_ns_elem(window),
    );
    out.put("alloc.lease_ns", micro::lease_ns(window, 1, effort));
    out.put("alloc.lease_ns_tw", micro::lease_ns(window, w, effort));
    out.put_host();

    out.checks
        .push(replies_match_whole_volume(args.seed, &volumes, &replies));
    out.checks.push(accounting_check([&stats_w, &stats_1]));
    out.checks.push(leak_check(
        leaked_w + leaked_1 + pools.stats().bytes_in_use(),
    ));
    out.steal_share = steal.share();
    out.disturbed_share = stats::disturbed_share(&plain.ms);
    out.notes.push(format!(
        "{} closed-loop volumes at W={w} ({capacity:.1} vol/s), {n_open} open-loop at {:.1}/s, {} at 1 worker (p10 {p10_w1:.2} ms), {replays} replays, {} spans",
        plain.ms.len() + traced.ms.len(),
        0.7 * capacity,
        phase1.ms.len(),
        tracer.len()
    ));
    out
}

fn shapes_fov(graph: &Graph) -> Vec3 {
    znn_graph::shapes::required_input_shape(graph, Vec3::one()).expect("valid net")
}
