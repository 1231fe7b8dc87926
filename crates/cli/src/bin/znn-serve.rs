//! `znn-serve` — serve dense-output inference for a spec-file network
//! from the command line, with the overload-safety knobs exposed.
//!
//! ```sh
//! znn-serve [--spec net.znn] [--in Z,Y,X] [--requests N] [--rate R]
//!           [--workers N] [--queue N] [--watermark N] [--batch N]
//!           [--degrade N] [--deadline-ms N] [--pool-report]
//! ```
//!
//! Drives `--requests` synthetic volumes through an overload-safe
//! server (`znn_serve::Server`): a bounded queue with an admission
//! watermark, batch workers sharing one warmed kernel-spectrum cache,
//! optional per-request deadlines (`--deadline-ms`, checked before
//! every node step of the whole-volume evaluation), and an optional
//! degradation ladder (`--degrade` queue depth at which workers halve
//! their batch size before any load is shed). `--rate` paces arrivals
//! per second (0 = as fast as possible).
//!
//! At exit it prints p50/p99 service latency, the server's stats
//! report (submitted/shed/deadline-missed counts and the queue-depth
//! admission signal), and — with `--pool-report` — the per-size-class
//! pool occupancy dump shared with `znn-train`.
//!
//! With no `--spec`, a built-in max-filter demo spec is used (dense
//! serving requires the filtering form of the network; `maxpool`
//! specs are rejected by the dense evaluator).

use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};
use znn_cli::parse_spec;
use znn_core::{DenseConfig, DenseNet};
use znn_serve::{Rejected, ServeConfig, Server};
use znn_tensor::{ops, Vec3};

const DEMO_SPEC: &str = "
# built-in demo: 2D boundary detector, filtering (dense-output) form
input width=1
conv width=4 kernel=1,3,3
transfer fn=relu
maxfilter window=1,2,2
conv width=1 kernel=1,3,3
transfer fn=logistic
";

struct Args {
    spec: Option<String>,
    input: Vec3,
    requests: usize,
    rate: f64,
    workers: usize,
    queue: usize,
    watermark: usize,
    batch: usize,
    degrade: Option<usize>,
    deadline: Option<Duration>,
    pool_report: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: znn-serve [--spec FILE] [--in Z,Y,X] [--requests N] [--rate R]\n\
         \t[--workers N] [--queue N] [--watermark N] [--batch N]\n\
         \t[--degrade N] [--deadline-ms N] [--pool-report]"
    );
    std::process::exit(2)
}

fn parse_shape(s: &str) -> Vec3 {
    let parts: Vec<usize> = s
        .split(',')
        .map(|p| p.trim().parse().unwrap_or_else(|_| usage()))
        .collect();
    match parts[..] {
        [n] => Vec3::cube(n),
        [y, x] => Vec3::flat(y, x),
        [z, y, x] => Vec3([z, y, x]),
        _ => usage(),
    }
}

fn parse_args() -> Args {
    let mut args = Args {
        spec: None,
        input: Vec3::flat(48, 48),
        requests: 64,
        rate: 0.0,
        workers: std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
        queue: 8,
        watermark: 0,
        batch: 4,
        degrade: None,
        deadline: None,
        pool_report: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut val = || it.next().unwrap_or_else(|| usage());
        match a.as_str() {
            "--spec" => args.spec = Some(val()),
            "--in" => args.input = parse_shape(&val()),
            "--requests" => args.requests = val().parse().unwrap_or_else(|_| usage()),
            "--rate" => args.rate = val().parse().unwrap_or_else(|_| usage()),
            "--workers" => args.workers = positive(&val()),
            "--queue" => args.queue = positive(&val()),
            "--watermark" => args.watermark = val().parse().unwrap_or_else(|_| usage()),
            "--batch" => args.batch = positive(&val()),
            "--degrade" => args.degrade = Some(val().parse().unwrap_or_else(|_| usage())),
            "--deadline-ms" => {
                args.deadline = Some(Duration::from_millis(
                    val().parse().unwrap_or_else(|_| usage()),
                ))
            }
            "--pool-report" => args.pool_report = true,
            "--help" | "-h" => usage(),
            _ => usage(),
        }
    }
    args
}

/// A count that must be at least 1: zero workers would serve nothing,
/// and a zero batch or queue admits nothing, so each is malformed.
fn positive(s: &str) -> usize {
    s.parse().ok().filter(|&n| n > 0).unwrap_or_else(|| usage())
}

fn percentile(sorted: &[f64], q: f64) -> f64 {
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx]
}

fn main() -> ExitCode {
    let args = parse_args();
    let text = match &args.spec {
        Some(path) => match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("cannot read {path}: {e}");
                return ExitCode::FAILURE;
            }
        },
        None => DEMO_SPEC.to_string(),
    };
    let graph = match parse_spec(&text) {
        Ok(g) => g,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "network: {} nodes, {} edges, {} parameters",
        graph.node_count(),
        graph.edge_count(),
        graph.parameter_count()
    );

    // direct-vs-FFT per geometry is priced by the cost model (the
    // default conv policy); nothing is timed on the serving path
    let net = match DenseNet::new(graph, 42, DenseConfig::default()) {
        Ok(n) => Arc::new(n),
        Err(e) => {
            eprintln!("cannot size network: {e}");
            return ExitCode::FAILURE;
        }
    };
    let out_shape = match net.output_shape_for(args.input) {
        Some(s) => s,
        None => {
            eprintln!(
                "input {} is smaller than the field of view {}",
                args.input,
                net.fov()
            );
            return ExitCode::FAILURE;
        }
    };
    println!(
        "serving dense volumes: input {} -> output {out_shape} (fov {})",
        args.input,
        net.fov()
    );
    net.warmup(args.input);

    let server = Server::start(
        Arc::clone(&net),
        ServeConfig {
            workers: args.workers,
            queue_capacity: args.queue,
            admission_watermark: args.watermark,
            max_batch: args.batch,
            degrade_watermark: args.degrade,
            ..ServeConfig::default()
        },
    );
    println!(
        "server: {} workers, queue {} (admission watermark {}), batch {}",
        args.workers,
        args.queue,
        server.watermark(),
        args.batch
    );

    let input = ops::random(args.input, 11);
    let interval = (args.rate > 0.0).then(|| Duration::from_secs_f64(1.0 / args.rate));
    let start = Instant::now();
    let mut pending = Vec::new();
    for _ in 0..args.requests {
        match server.submit(input.clone(), args.deadline) {
            Ok(ticket) => pending.push((Instant::now(), ticket)),
            Err(Rejected::Overloaded { .. }) => {}
            Err(e) => {
                eprintln!("submit failed: {e}");
                return ExitCode::FAILURE;
            }
        }
        if let Some(d) = interval {
            std::thread::sleep(d);
        }
    }
    let mut latencies = Vec::new();
    for (submitted, ticket) in pending {
        let (result, done) = ticket.wait_timed();
        match result {
            Ok(_) | Err(Rejected::DeadlineExceeded { .. }) => {
                latencies.push((done - submitted).as_secs_f64());
            }
            Err(e) => {
                eprintln!("request failed: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    let elapsed = start.elapsed().as_secs_f64();

    if !latencies.is_empty() {
        latencies.sort_by(f64::total_cmp);
        println!(
            "latency: p50 {:.2} ms, p99 {:.2} ms ({:.1} volumes/s)",
            percentile(&latencies, 0.50) * 1e3,
            percentile(&latencies, 0.99) * 1e3,
            latencies.len() as f64 / elapsed,
        );
    }
    print!("{}", server.report());
    server.shutdown();

    if args.pool_report {
        let pools = znn_alloc::PoolSet::global();
        println!("pool report (per size class, f32 units):");
        println!("  class  chunk_len     parked       hits     misses  hit-rate");
        for row in pools.class_report() {
            println!(
                "  {:>5}  {:>9}  {:>9}  {:>9}  {:>9}  {:>7.1}%",
                row.class,
                row.chunk_len,
                row.parked,
                row.hits,
                row.misses,
                row.hit_rate() * 100.0
            );
        }
    }
    ExitCode::SUCCESS
}
