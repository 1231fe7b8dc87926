//! Serve soak — overload-safety telemetry for the inference server:
//!
//! * `"uncontended"` — the latency floor: sequential requests against
//!   an idle server. p50/p99 service latency (submit → worker fulfill,
//!   measured with `Ticket::wait_timed` so client collection lag is
//!   not charged) and dense output volumes per second.
//! * `"overload"` — open-loop arrivals paced at 2× the measured
//!   service capacity against a tight admission watermark. Admission
//!   control must shed (`shed_under_overload`), and the p99 of the
//!   requests it *does* admit must stay within 3× the uncontended p99
//!   (`p99_bounded`) — the whole point of shedding at a watermark
//!   instead of queueing unboundedly. The uncontended reference p99
//!   (`p99_baseline_s`) is measured through the *same* open-loop
//!   harness at 0.5× capacity (where the queue never builds), so the
//!   ratio isolates queueing delay from submitter-thread wakeup noise.
//! * `"degrade"` — the same pressure against a server whose
//!   degradation watermark sits below its admission watermark: workers
//!   must halve their batch size (`ladder_engaged`) before shedding.
//! * `"faults"` — a request mix under deadlines with recurring
//!   `SlowTask` (stalls past the budget → typed mid-volume
//!   cancellation), recurring `TaskPanic` (contained per request), and
//!   seeded-probability `RejectLease` (typed shed at submit). Survived
//!   means every submission got a typed answer and the counters
//!   reconcile exactly.
//! * `"pool"` — flat-memory verdicts: pool resident bytes sampled
//!   after the first traffic phase must not grow through overload and
//!   faults (`resident_flat`), and after shutdown every pooled lease
//!   must be home (`pool_leaked_bytes` = 0).
//!
//! Emits `BENCH_serve.json` and exits non-zero if any verdict fails,
//! so CI's `--smoke` run gates the overload-safety properties, not
//! just the numbers' existence.

use std::fmt::Write as _;
use std::sync::Arc;
use std::time::{Duration, Instant};
use znn_alloc::PoolSet;
use znn_bench::{fmt, header, row};
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

    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"smoke\": {smoke},");
    let mut failures: Vec<&'static str> = Vec::new();
    // workers beyond the core count oversubscribe and inflate every
    // concurrent service time, which is overload the *machine* causes,
    // not overload the server must bound
    let workers = std::thread::available_parallelism()
        .map(|n| n.get().min(2))
        .unwrap_or(1);
    let _ = writeln!(json, "  \"workers\": {workers},");

    // --- uncontended latency floor ----------------------------------
    let (p50_idle, p99_idle, volumes_per_s) = {
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
        lat.sort_by(f64::total_cmp);
        let stats = server.shutdown();
        assert_eq!(stats.shed_overload, 0, "idle server must not shed");
        (
            percentile(&lat, 0.50),
            percentile(&lat, 0.99),
            reps as f64 / elapsed,
        )
    };
    println!("# serve soak — uncontended floor\n");
    header(&["p50 s", "p99 s", "volumes/s"]);
    row(&[fmt(p50_idle), fmt(p99_idle), format!("{volumes_per_s:.1}")]);
    json.push_str("  \"uncontended\": {\n");
    let _ = writeln!(json, "    \"p50_s\": {p50_idle:.6e},");
    let _ = writeln!(json, "    \"p99_s\": {p99_idle:.6e},");
    let _ = writeln!(json, "    \"volumes_per_s\": {volumes_per_s:.2}");
    json.push_str("  },\n");

    // --- overload at 2× capacity ------------------------------------
    // same server shape for baseline and overload; only the arrival
    // rate changes, so the ratio measures queueing, not the harness
    let tight = ServeConfig {
        workers,
        queue_capacity: 8,
        // the tight watermark is what bounds admitted-request latency:
        // at most 1 queued ahead, no batch-mates in this phase
        admission_watermark: 1,
        max_batch: 1,
        ..ServeConfig::default()
    };
    // each p99 below is read from `n` admitted requests: at 100 it is
    // the second-slowest, so one preempted request cannot decide it
    let n = if smoke { 100 } else { 400 };
    let service = Duration::from_secs_f64(p50_idle);
    // baseline: 0.5× capacity — the queue never builds, so this is
    // the uncontended p99 as seen through the open-loop harness
    let (base_lat, _) = open_loop(&net, tight.clone(), &input, 2 * service / workers as u32, n);
    let p99_base = percentile(&base_lat, 0.99);
    // overload: 2× what the workers can drain
    let (over_lat, over_stats) =
        open_loop(&net, tight, &input, service / workers as u32 / 2, n);
    let (p50_over, p99_over) = (percentile(&over_lat, 0.50), percentile(&over_lat, 0.99));
    let shed_rate = over_stats.shed_rate();
    let p99_ratio = p99_over / p99_base;
    let shed_under_overload = shed_rate > 0.0;
    let p99_bounded = p99_ratio <= 3.0;
    if !shed_under_overload {
        failures.push("overload did not shed (watermark never fired)");
    }
    if !p99_bounded {
        failures.push("admitted p99 exceeded 3x the uncontended p99");
    }
    println!("\n# overload at 2x capacity (watermark 1, baseline at 0.5x)\n");
    header(&["p50 s", "p99 s", "baseline p99 s", "shed rate", "p99 ratio"]);
    row(&[
        fmt(p50_over),
        fmt(p99_over),
        fmt(p99_base),
        format!("{:.1}%", 100.0 * shed_rate),
        format!("{p99_ratio:.2}"),
    ]);
    json.push_str("  \"overload\": {\n");
    let _ = writeln!(json, "    \"p50_s\": {p50_over:.6e},");
    let _ = writeln!(json, "    \"p99_s\": {p99_over:.6e},");
    let _ = writeln!(json, "    \"p99_baseline_s\": {p99_base:.6e},");
    let _ = writeln!(json, "    \"shed_rate\": {shed_rate:.4},");
    let _ = writeln!(json, "    \"p99_ratio\": {p99_ratio:.3},");
    let _ = writeln!(json, "    \"shed_under_overload\": {shed_under_overload},");
    let _ = writeln!(json, "    \"p99_bounded\": {p99_bounded}");
    json.push_str("  },\n");

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
    if !ladder_engaged {
        failures.push("degradation ladder never engaged under pressure");
    }
    println!("\n# degradation ladder (degrade at 2, shed at 6)\n");
    header(&["degraded batches", "shed rate", "ladder engaged"]);
    row(&[
        degraded_batches.to_string(),
        format!("{:.1}%", 100.0 * degrade_shed_rate),
        ladder_engaged.to_string(),
    ]);
    json.push_str("  \"degrade\": {\n");
    let _ = writeln!(json, "    \"degraded_batches\": {degraded_batches},");
    let _ = writeln!(json, "    \"shed_rate\": {degrade_shed_rate:.4},");
    let _ = writeln!(json, "    \"ladder_engaged\": {ladder_engaged}");
    json.push_str("  },\n");

    // pool baseline once every size class is warm: every phase so far
    // served the same volume shape; nothing after this may grow the
    // pool
    let resident_baseline = pools.resident_bytes();

    // --- fault mix under deadlines ----------------------------------
    let fault_stats = {
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
            // budget sized so only SlowTask-stalled requests miss it
            let outcome = match server.submit(input.clone(), Some(slow / 2)) {
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
        if !survived {
            failures.push("fault mix not survived with reconciled counters");
        }
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
        json.push_str("  \"faults\": {\n");
        let _ = writeln!(json, "    \"requests\": {n},");
        let _ = writeln!(json, "    \"completed\": {},", stats.completed);
        let _ = writeln!(json, "    \"deadline_missed\": {},", stats.deadline_missed);
        let _ = writeln!(
            json,
            "    \"deadline_miss_rate\": {:.4},",
            stats.deadline_miss_rate()
        );
        let _ = writeln!(json, "    \"panicked\": {},", stats.panicked);
        let _ = writeln!(json, "    \"lease_refused\": {},", stats.lease_refused);
        let _ = writeln!(json, "    \"survived\": {survived}");
        json.push_str("  },\n");
        stats
    };
    let _ = fault_stats;

    // --- flat memory + zero leaks -----------------------------------
    // all three phases served the same input shape through the same
    // pool, so resident bytes must not have grown past the baseline
    drop(input);
    drop(net);
    let resident_end = pools.resident_bytes();
    let leaked = pools.stats().bytes_in_use();
    let resident_flat = resident_end <= resident_baseline;
    if !resident_flat {
        failures.push("pool resident bytes grew after the first traffic phase");
    }
    if leaked != 0 {
        failures.push("pooled bytes still leased after shutdown — leak");
    }
    println!("\n# pool custody and resident flatness\n");
    header(&["baseline resident", "final resident", "leaked bytes", "flat"]);
    row(&[
        resident_baseline.to_string(),
        resident_end.to_string(),
        leaked.to_string(),
        resident_flat.to_string(),
    ]);
    json.push_str("  \"pool\": {\n");
    let _ = writeln!(json, "    \"resident_baseline_bytes\": {resident_baseline},");
    let _ = writeln!(json, "    \"resident_end_bytes\": {resident_end},");
    let _ = writeln!(json, "    \"resident_flat\": {resident_flat},");
    let _ = writeln!(json, "    \"pool_leaked_bytes\": {leaked}");
    json.push_str("  },\n");
    let verdict = failures.is_empty();
    let _ = writeln!(json, "  \"verdict\": {verdict}");
    json.push_str("}\n");

    println!(
        "\nshape check: the server sheds typed at the watermark instead of\n\
         letting p99 collapse, cancels expired requests mid-volume with\n\
         every lease returned, contains panics per request, and serves\n\
         the whole soak out of a flat pool."
    );

    match std::fs::write("BENCH_serve.json", &json) {
        Ok(()) => println!("\nwrote BENCH_serve.json"),
        Err(e) => {
            // fail loudly: CI greps the file for these fields, and a
            // swallowed write error would let that check pass vacuously
            eprintln!("\ncould not write BENCH_serve.json: {e}");
            std::process::exit(1);
        }
    }
    if !verdict {
        for f in &failures {
            eprintln!("FAILED VERDICT: {f}");
        }
        std::process::exit(1);
    }
}
