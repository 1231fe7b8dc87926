//! Serve soak — overload-safety telemetry for the inference server:
//!
//! * `"uncontended"` — the latency floor: sequential requests against
//!   an idle server. p50/p99 service latency (submit → worker fulfill,
//!   measured with `Ticket::wait_timed` so client collection lag is
//!   not charged) and dense output volumes per second.
//! * `"overload"` — open-loop arrivals paced at 4× the service
//!   capacity (the pressure phases are paced from [`service_estimate`],
//!   which one host stall cannot move) against a tight admission
//!   watermark. Admission control must shed (`shed_under_overload`),
//!   and the p99 of the requests it *does* admit must stay within 3×
//!   the uncontended p99 (`p99_bounded`) — the whole point of shedding
//!   at a watermark instead of queueing unboundedly. The uncontended
//!   reference p99 is measured through the *same* open-loop harness at
//!   0.5× the capacity the uncontended p50 implies (where the queue
//!   never builds), so the ratio isolates queueing delay from
//!   submitter-thread wakeup noise. Baseline and overload windows
//!   alternate under [`paired::judge`], one p99 ratio per pair, so a
//!   host stall moves one pair, not the verdict.
//! * `"degrade"` — the same pressure against a server whose
//!   degradation watermark sits below its admission watermark: workers
//!   must halve their batch size (`ladder_engaged`) before shedding.
//! * `"faults"` — a request mix with recurring `SlowTask` (stalls past
//!   the budget that only these requests carry → typed mid-volume
//!   cancellation), recurring `TaskPanic` (contained per request), and
//!   seeded-probability `RejectLease` (typed shed at submit). Survived
//!   means every submission got a typed answer and the counters
//!   reconcile exactly.
//! * `"pool"` — flat-memory verdicts: pool resident bytes sampled
//!   after the first traffic phase must not grow through overload and
//!   faults (`resident_flat`), and after shutdown every pooled lease
//!   must be home (`pool_leaked_bytes` = 0).
//!
//! Writes `BENCH_serve.json` and exits non-zero through `Verdicts` if
//! any verdict fails, so CI's `--smoke` run gates the overload-safety
//! properties, not just the numbers' existence.

use std::sync::Arc;
use std::time::{Duration, Instant};
use znn_alloc::PoolSet;
use znn_bench::{fmt, header, median, paired, row, write_record, Verdicts};
use znn_core::{ConvPolicy, DenseConfig, DenseNet};
use znn_fault::{FaultKind, FaultPlan};
use znn_graph::NetBuilder;
use znn_ops::Transfer;
use znn_serve::{Rejected, ServeConfig, Server};
use znn_tensor::{ops, Image, Vec3};

/// The served net: the Fig. 2 filtering form (max-filter, not
/// max-pool), which the dense path serves. fov (1,8,8).
fn dense_net(pools: Arc<PoolSet>) -> Arc<DenseNet> {
    let (graph, _) = NetBuilder::new("serve-soak", 1)
        .conv(2, Vec3::flat(3, 3))
        .transfer(Transfer::Tanh)
        .max_filter(Vec3::flat(2, 2))
        .conv(1, Vec3::flat(3, 3))
        .transfer(Transfer::Tanh)
        .build()
        .expect("soak net builds");
    let cfg = DenseConfig {
        conv: ConvPolicy::Autotune,
        pools: Some(pools),
        ..DenseConfig::default()
    };
    Arc::new(DenseNet::new(graph, 7, cfg).expect("soak net sizes"))
}

fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of empty sample");
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx]
}

/// The service time the pressure phases are paced from: the fastest of
/// the medians of four consecutive windows of the uncontended samples,
/// in the order they were taken. A host stall slows only the windows it
/// overlaps, so unlike the p50 of all samples it cannot pace a phase
/// below capacity.
fn service_estimate(samples: &[f64]) -> f64 {
    let window_p50 = |w: &[f64]| {
        let mut w = w.to_vec();
        w.sort_by(f64::total_cmp);
        percentile(&w, 0.5)
    };
    samples.chunks(samples.len().div_ceil(4)).map(window_p50).fold(f64::INFINITY, f64::min)
}

/// Open-loop paced run against a fresh server until `admit` requests
/// have been admitted: arrival `i` is due at `t0 + i·interval`; collect
/// worker-side completion latencies for every admitted request, shut
/// down. Counting admissions, not arrivals, fixes the sample size a
/// percentile is read from, whatever the shed rate. The submitter
/// sleeps only until the next due time and a late arrival goes out at
/// once, so the rate is the one asked for, not one capped by the OS
/// sleep floor.
/// Baseline and overload both run through this, so the submitter
/// thread's wakeup noise (which preempts workers on small machines)
/// lands in both samples and the p99 ratio isolates what queueing
/// adds.
fn open_loop(
    net: &Arc<DenseNet>,
    cfg: ServeConfig,
    input: &Image,
    interval: Duration,
    admit: usize,
) -> (Vec<f64>, znn_serve::ServeStats) {
    let server = Server::start(Arc::clone(net), cfg);
    let mut pending = Vec::new();
    let t0 = Instant::now();
    let mut arrivals = 0;
    while pending.len() < admit {
        let due = t0 + interval.mul_f64(arrivals as f64);
        arrivals += 1;
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        let start = Instant::now();
        match server.submit(input.clone(), None) {
            Ok(ticket) => pending.push((start, ticket)),
            Err(Rejected::Overloaded { .. }) => {}
            Err(e) => panic!("unexpected rejection in open-loop run: {e}"),
        }
    }
    let mut lat: Vec<f64> = pending
        .into_iter()
        .map(|(start, ticket)| {
            let (result, done) = ticket.wait_timed();
            result.expect("admitted requests complete");
            (done - start).as_secs_f64()
        })
        .collect();
    lat.sort_by(f64::total_cmp);
    let stats = server.shutdown();
    assert_eq!(stats.submitted, arrivals, "every arrival was offered");
    (lat, stats)
}

/// Submit one request and wait; returns worker-side service latency.
fn serve_one(server: &Server, input: &Image) -> f64 {
    let start = Instant::now();
    let ticket = server.submit(input.clone(), None).expect("idle server admits");
    let (result, done) = ticket.wait_timed();
    result.expect("idle server completes");
    (done - start).as_secs_f64()
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let pools = PoolSet::new();
    let net = dense_net(Arc::clone(&pools));
    // large enough that per-volume service time (~0.5 ms) dwarfs
    // scheduler wakeup jitter, so the p99 ratio measures queueing, not
    // the OS
    let in_shape = Vec3::flat(40, 40);
    net.warmup(in_shape);
    let input = ops::random(in_shape, 11);

    let mut v = Verdicts::default();
    // workers beyond the core count oversubscribe and inflate every
    // concurrent service time, which is overload the *machine* causes,
    // not overload the server must bound
    let workers = std::thread::available_parallelism()
        .map(|n| n.get().min(2))
        .unwrap_or(1);
    let mut members = vec![format!("\"workers\": {workers}")];

    // --- uncontended latency floor ----------------------------------
    let (p50_idle, p99_idle, service_s, volumes_per_s) = {
        let server = Server::start(
            Arc::clone(&net),
            ServeConfig {
                workers,
                ..ServeConfig::default()
            },
        );
        let reps = if smoke { 24 } else { 150 };
        for _ in 0..3 {
            serve_one(&server, &input); // warm workers + kernel spectra
        }
        let start = Instant::now();
        let mut lat: Vec<f64> = (0..reps).map(|_| serve_one(&server, &input)).collect();
        let elapsed = start.elapsed().as_secs_f64();
        let service_s = service_estimate(&lat);
        lat.sort_by(f64::total_cmp);
        let stats = server.shutdown();
        assert_eq!(stats.shed_overload, 0, "idle server must not shed");
        (
            percentile(&lat, 0.50),
            percentile(&lat, 0.99),
            service_s,
            reps as f64 / elapsed,
        )
    };
    println!("# serve soak — uncontended floor\n");
    header(&["p50 s", "p99 s", "service estimate s", "volumes/s"]);
    row(&[fmt(p50_idle), fmt(p99_idle), fmt(service_s), format!("{volumes_per_s:.1}")]);
    members.push(format!(
        "\"uncontended\": {{\"p50_s\": {p50_idle:.6e}, \"p99_s\": {p99_idle:.6e}, \
         \"service_estimate_s\": {service_s:.6e}, \"volumes_per_s\": {volumes_per_s:.2}}}"
    ));

    // --- overload at 4× capacity ------------------------------------
    // same server shape for baseline and overload; only the arrival
    // rate changes, so the ratio measures queueing, not the harness
    let tight = ServeConfig {
        workers,
        // a server without the watermark fills this queue in every
        // overload window, so only the watermark bounds
        // admitted-request latency: at most 1 queued ahead, no
        // batch-mates in this phase
        queue_capacity: 64,
        admission_watermark: 1,
        max_batch: 1,
        ..ServeConfig::default()
    };
    // a baseline window's p99 is read from `n` admitted requests: at
    // 100 it is the second-slowest, so one preempted request cannot
    // decide it. An overload window admits 4n, which at 4× the drain
    // rate queues past the capacity of 64 without the watermark even
    // when the service estimate is twice the real service time
    let n = if smoke { 100 } else { 400 };
    let admit = [n, 4 * n];
    // baseline: 0.5× capacity — the queue never builds, so this is
    // the uncontended p99 as seen through the open-loop harness;
    // overload: 4× what the workers can drain
    let p50 = Duration::from_secs_f64(p50_idle);
    let service = Duration::from_secs_f64(service_s);
    let intervals = [2 * p50 / workers as u32, service / workers as u32 / 4];
    // baseline and overload windows alternate, and each pair's ratio of
    // p99s is one score, so a host stall moves one pair, not the verdict
    let mut shed = (0, 0); // (shed, submitted) over the overload windows
    let (p99_bounded, p99s) = paired::judge(
        2,
        (0, if smoke { 9 } else { 15 }),
        |arm| {
            let (lat, stats) = open_loop(&net, tight.clone(), &input, intervals[arm], admit[arm]);
            if arm == 1 {
                shed = (shed.0 + stats.shed_overload, shed.1 + stats.submitted);
            }
            Duration::from_secs_f64(percentile(&lat, 0.99))
        },
        |s| vec![s[1].iter().zip(&s[0]).map(|(over, base)| over / base / 3.0).collect()],
    );
    let p99_bounded = p99_bounded[0];
    let (p99_base, p99_over) = (median(&p99s[0]), median(&p99s[1]));
    let shed_rate = shed.0 as f64 / shed.1 as f64;
    let shed_under_overload = shed.0 > 0;
    println!("\n# overload at 4x capacity (watermark 1, baseline at 0.5x; medians of the windows)\n");
    header(&["p99 s", "baseline p99 s", "shed rate", "p99 ratio / 3"]);
    row(&[
        fmt(p99_over),
        fmt(p99_base),
        format!("{:.1}%", 100.0 * shed_rate),
        format!("{:.3}", p99_bounded.stat.median),
    ]);
    v.check("shed_under_overload: the watermark fired under overload", shed_under_overload);
    v.timed("p99_bounded: admitted p99 within 3x the uncontended p99", &p99_bounded);
    members.push(format!(
        "\"overload\": {{\"p99_s\": {p99_over:.6e}, \"p99_baseline_s\": {p99_base:.6e}, \
         \"shed_rate\": {shed_rate:.4}, \"shed_under_overload\": {shed_under_overload}, \
         \"p99_bounded\": {}}}",
        p99_bounded.json()
    ));

    // --- degradation ladder under pressure --------------------------
    let (degraded_batches, degrade_shed_rate) = {
        let cfg = ServeConfig {
            workers,
            queue_capacity: 8,
            admission_watermark: 6,
            degrade_watermark: Some(2),
            ..ServeConfig::default()
        };
        let dn = if smoke { 40 } else { 150 };
        let (_, stats) = open_loop(&net, cfg, &input, service / workers as u32 / 2, dn);
        (stats.degraded_batches, stats.shed_rate())
    };
    let ladder_engaged = degraded_batches > 0;
    println!("\n# degradation ladder (degrade at 2, shed at 6)\n");
    header(&["degraded batches", "shed rate", "ladder engaged"]);
    row(&[
        degraded_batches.to_string(),
        format!("{:.1}%", 100.0 * degrade_shed_rate),
        ladder_engaged.to_string(),
    ]);
    v.check("ladder_engaged: batches degraded under pressure", ladder_engaged);
    members.push(format!(
        "\"degrade\": {{\"degraded_batches\": {degraded_batches}, \"shed_rate\": {degrade_shed_rate:.4}, \
         \"ladder_engaged\": {ladder_engaged}}}"
    ));

    // pool baseline once every size class is warm: every phase so far
    // served the same volume shape; nothing after this may grow the
    // pool
    let resident_baseline = pools.resident_bytes();

    // --- fault mix under deadlines ----------------------------------
    {
        let slow = Duration::from_millis(40);
        let plan = Arc::new(
            FaultPlan::new()
                .every_n(FaultKind::SlowTask, 5, 5)
                .every_n(FaultKind::TaskPanic, 7, 7)
                .chance(FaultKind::RejectLease, 100, 42),
        );
        let server = Server::start(
            Arc::clone(&net),
            ServeConfig {
                workers,
                faults: Some(Arc::clone(&plan)),
                slow_task: slow,
                ..ServeConfig::default()
            },
        );
        let n = if smoke { 25 } else { 80 };
        // injected panics are the test subject, not noise worth a
        // backtrace per occurrence
        let prev_hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        // the injection plan is deterministic and ids are sequential
        // from 1, so every request's expected typed outcome is known:
        // RejectLease (seeded) wins at submit, then TaskPanic (every
        // 7th) preempts SlowTask (every 5th, which stalls past the
        // budget and must cancel mid-volume), else completion
        let mut mismatched = 0usize;
        for i in 0..n {
            let id = i + 1;
            // only the SlowTask requests carry a budget, half their
            // stall, so no host stall can turn another request's
            // completion into a deadline miss
            let budget = (id % 5 == 0).then_some(slow / 2);
            let outcome = match server.submit(input.clone(), budget) {
                Ok(ticket) => ticket.wait(),
                Err(e) => Err(e),
            };
            let as_expected = match outcome {
                Err(Rejected::LeaseRefused) => true, // seeded coin, submit-time
                Err(Rejected::Panicked { .. }) => id % 7 == 0,
                Err(Rejected::DeadlineExceeded { blocks_done, blocks_total }) => {
                    id % 5 == 0 && id % 7 != 0 && blocks_done >= 1 && blocks_done < blocks_total
                }
                Ok(out) => {
                    (id % 5 != 0 && id % 7 != 0)
                        && Some(out.shape()) == net.output_shape_for(in_shape)
                }
                Err(e) => panic!("unexpected rejection in fault phase: {e}"),
            };
            if !as_expected {
                mismatched += 1;
            }
        }
        let stats = server.shutdown();
        std::panic::set_hook(prev_hook);
        let reconciled = stats.completed
            + stats.deadline_missed
            + stats.panicked
            + stats.lease_refused
            == stats.submitted
            && stats.submitted == n;
        let survived = mismatched == 0
            && reconciled
            && stats.deadline_missed > 0
            && stats.panicked > 0
            && stats.lease_refused == plan.fired_of(FaultKind::RejectLease) as u64
            && stats.panicked == plan.fired_of(FaultKind::TaskPanic) as u64;
        println!("\n# fault mix under deadlines ({n} requests)\n");
        header(&[
            "completed",
            "deadline missed",
            "panicked",
            "lease refused",
            "survived",
        ]);
        row(&[
            stats.completed.to_string(),
            stats.deadline_missed.to_string(),
            stats.panicked.to_string(),
            stats.lease_refused.to_string(),
            survived.to_string(),
        ]);
        v.check("survived: every request of the fault mix got its typed answer", survived);
        members.push(format!(
            "\"faults\": {{\"requests\": {n}, \"completed\": {}, \"deadline_missed\": {}, \
             \"deadline_miss_rate\": {:.4}, \"panicked\": {}, \"lease_refused\": {}, \"survived\": {survived}}}",
            stats.completed,
            stats.deadline_missed,
            stats.deadline_miss_rate(),
            stats.panicked,
            stats.lease_refused
        ));
    }

    // --- flat memory + zero leaks -----------------------------------
    // all three phases served the same input shape through the same
    // pool, so resident bytes must not have grown past the baseline
    drop(input);
    drop(net);
    let resident_end = pools.resident_bytes();
    let leaked = pools.stats().bytes_in_use();
    let resident_flat = resident_end <= resident_baseline;
    println!("\n# pool custody and resident flatness\n");
    header(&["baseline resident", "final resident", "leaked bytes", "flat"]);
    row(&[
        resident_baseline.to_string(),
        resident_end.to_string(),
        leaked.to_string(),
        resident_flat.to_string(),
    ]);
    v.check("resident_flat: pool resident bytes flat after the first traffic phase", resident_flat);
    v.check("pool_leaked_bytes == 0 after shutdown", leaked == 0);
    members.push(format!(
        "\"pool\": {{\"resident_baseline_bytes\": {resident_baseline}, \"resident_end_bytes\": {resident_end}, \
         \"resident_flat\": {resident_flat}, \"pool_leaked_bytes\": {leaked}}}"
    ));

    println!(
        "\nshape check: the server sheds typed at the watermark instead of\n\
         letting p99 collapse, cancels expired requests mid-volume with\n\
         every lease returned, contains panics per request, and serves\n\
         the whole soak out of a flat pool."
    );
    write_record("serve", smoke, &members);
    std::process::exit(v.exit_code());
}
