//! `znn-train` — train a network described by a spec file on synthetic
//! volumes, from the command line.
//!
//! ```sh
//! znn-train --spec net.znn --out 8 --rounds 50 --lr 0.01 \
//!           [--workers N] [--fft|--direct] \
//!           [--no-memoize] [--no-pool] [--stealing] [--pool-report] \
//!           [--checkpoint-dir D] [--checkpoint-every N] [--resume]
//! ```
//!
//! `--workers` sets the scheduler's worker count, which is the whole
//! thread budget: every FFT runs on the worker whose task needs it.
//!
//! By default the `znn-plan` cost model picks, per conv edge, direct
//! vs FFT and the pad shape by pricing the
//! theory FLOP model through a detected machine model, once, when the
//! engine is built. `--fft` / `--direct` force one method everywhere
//! instead. Either way the engine runs exactly the plan that is
//! printed.
//! Methods and pads depend only on the network, `--out` and
//! `--no-memoize`, so a `--resume` on another host replays the same
//! plan.
//!
//! `--no-pool` disables the §VII-C pooled allocator (hot-path buffers
//! fall back to plain `Vec`s); by default every image/spectrum buffer
//! leases from the process-wide recycling pool, whose hit rate and
//! resident footprint are reported when training ends. `--pool-report`
//! additionally dumps per-size-class occupancy and hit rates at exit.
//!
//! Training always runs the one recoverable loop
//! (`Trainer::run_recoverable`): divergence and non-finite sentinels
//! roll back past the update that caused a failure and retry with a
//! backed-off SGD step. `--checkpoint-dir` only adds durable snapshots
//! (atomic write + CRC-checked, every `--checkpoint-every` rounds,
//! default 25, and at the end). `--resume` restarts from the newest
//! valid snapshot in the directory, bit-identically.
//!
//! With no `--spec`, a built-in demo spec is used. The synthetic
//! dataset makes one input volume and one target, so a spec whose net
//! has more than one input or output node (`input width=` or the last
//! conv's `width=` above 1) exits 2 with the usage message.

use std::path::PathBuf;
use std::process::ExitCode;
use znn_cli::parse_spec;
use znn_core::{
    BlobsDataset, CheckpointConfig, ConvPolicy, LrSchedule, TrainConfig, TrainOutcome, Trainer, Znn,
};
use znn_ops::Loss;
use znn_tensor::Vec3;

const DEMO_SPEC: &str = "
# built-in demo: small 3D boundary detector
input width=1
conv width=4 kernel=3,3,3
transfer fn=relu
conv width=4 kernel=3,3,3
transfer fn=relu
conv width=1 kernel=3,3,3
transfer fn=logistic
";

struct Args {
    spec: Option<String>,
    out: usize,
    rounds: u64,
    lr: f32,
    workers: Option<usize>,
    conv: ConvPolicy,
    memoize: bool,
    stealing: bool,
    pool: bool,
    pool_report: bool,
    checkpoint_dir: Option<PathBuf>,
    checkpoint_every: Option<u64>,
    resume: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: znn-train [--spec FILE] [--out N] [--rounds N] [--lr F]\n\
         \t[--workers N] [--fft|--direct]\n\
         \t[--no-memoize] [--no-pool] [--stealing] [--pool-report]\n\
         \t[--checkpoint-dir D] [--checkpoint-every N] [--resume]"
    );
    std::process::exit(2)
}

fn parse_args() -> Args {
    let mut args = Args {
        spec: None,
        out: 6,
        rounds: 30,
        lr: 0.01,
        workers: None,
        conv: ConvPolicy::Autotune,
        memoize: true,
        stealing: false,
        pool: true,
        pool_report: false,
        checkpoint_dir: None,
        checkpoint_every: None,
        resume: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut val = || it.next().unwrap_or_else(|| usage());
        match a.as_str() {
            "--spec" => args.spec = Some(val()),
            "--out" => args.out = val().parse().unwrap_or_else(|_| usage()),
            "--rounds" => args.rounds = val().parse().unwrap_or_else(|_| usage()),
            "--lr" => args.lr = val().parse().unwrap_or_else(|_| usage()),
            // an executor needs at least one worker
            "--workers" => {
                let n = val().parse().ok().filter(|&n: &usize| n > 0);
                args.workers = Some(n.unwrap_or_else(|| usage()))
            }
            "--fft" => args.conv = ConvPolicy::ForceFft,
            "--direct" => args.conv = ConvPolicy::ForceDirect,
            "--no-memoize" => args.memoize = false,
            "--no-pool" => args.pool = false,
            "--stealing" => args.stealing = true,
            "--pool-report" => args.pool_report = true,
            "--checkpoint-dir" => args.checkpoint_dir = Some(PathBuf::from(val())),
            "--checkpoint-every" => {
                args.checkpoint_every = Some(val().parse().unwrap_or_else(|_| usage()))
            }
            "--resume" => args.resume = true,
            "--help" | "-h" => usage(),
            _ => usage(),
        }
    }
    if args.checkpoint_dir.is_none() && (args.checkpoint_every.is_some() || args.resume) {
        eprintln!("--checkpoint-every / --resume require --checkpoint-dir");
        usage();
    }
    args
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
    // the synthetic dataset makes one input volume and one target
    let (inputs, outputs) = (graph.inputs().len(), graph.outputs().len());
    if inputs != 1 || outputs != 1 {
        eprintln!(
            "the spec's net has {inputs} input and {outputs} output nodes; \
             training on the built-in dataset needs input width=1 and a last conv of width=1"
        );
        usage();
    }
    println!(
        "network: {} nodes, {} edges, {} parameters",
        graph.node_count(),
        graph.edge_count(),
        graph.parameter_count()
    );

    let checkpoint = args.checkpoint_dir.clone().map(|dir| {
        let mut cc = CheckpointConfig::new(dir);
        if let Some(every) = args.checkpoint_every {
            cc.every = every;
        }
        cc
    });
    let autotune = args.conv == ConvPolicy::Autotune;
    if autotune {
        // the model the engine's own planner prices through
        let m = znn_plan::Machine::host();
        println!(
            "planner: machine prior {} ({} cores, {:.1} GFLOP/s, {:.1} GB/s)",
            m.name, m.cores, m.gflops, m.bandwidth_gbs
        );
    }
    let cfg = TrainConfig {
        workers: args.workers.unwrap_or_else(|| {
            std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
        }),
        learning_rate: args.lr,
        conv: args.conv,
        memoize_fft: args.memoize,
        work_stealing: args.stealing,
        loss: Loss::Mse,
        pools: args.pool.then(znn_alloc::PoolSet::global),
        checkpoint,
        ..Default::default()
    };
    let out_shape = Vec3::cube(args.out);
    let znn = match Znn::new(graph, out_shape, cfg) {
        Ok(z) => z,
        Err(e) => {
            eprintln!("cannot size network: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("input {} -> output {out_shape}", znn.input_shape());
    let plan = znn.net_plan();
    let (direct, fft) = plan.edges.iter().flatten().fold((0, 0), |(d, f), ep| {
        match ep.method {
            znn_ops::ConvMethod::Direct => (d + 1, f),
            znn_ops::ConvMethod::Fft => (d, f + 1),
        }
    });
    print!("plan: {direct} direct / {fft} FFT conv edges");
    if autotune {
        print!(", predicted round {:.0}µs", plan.predicted_round_us);
    }
    println!();

    let data = BlobsDataset {
        input_shape: znn.input_shape(),
        output_shape: out_shape,
        blobs: 3,
        noise: 0.05,
        seed: 42,
    };
    let mut trainer = Trainer::new(&znn, data).with_schedule(LrSchedule::Constant);
    if args.resume {
        match trainer.resume() {
            Ok(Some(round)) => println!("resumed from checkpoint at round {round}"),
            Ok(None) => println!("no valid checkpoint found; starting fresh"),
            Err(e) => {
                eprintln!("cannot resume: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    let report_every = (args.rounds / 6).max(1);
    let report = |p: znn_core::Progress| {
        println!(
            "rounds {:>4}+: mean loss {:.4} (lr x{:.2})",
            p.round, p.mean_loss, p.lr_factor
        );
    };
    match trainer.run_recoverable(args.rounds, report_every, report) {
        Ok(TrainOutcome::Completed { final_loss }) => {
            println!("training completed, final loss {final_loss:.4}");
        }
        Ok(TrainOutcome::Interrupted { at_round }) => {
            println!("training interrupted at round {at_round}");
        }
        Err(e) => {
            eprintln!("training failed: {e}");
            return ExitCode::FAILURE;
        }
    }
    let stats = znn.stats();
    println!(
        "done: {} tasks executed; FORCE done/inline/delegated = {}/{}/{}",
        stats.tasks_executed,
        stats.force_already_done,
        stats.force_ran_inline,
        stats.force_delegated
    );
    if args.pool {
        println!(
            "alloc: {:.1}% pool hit rate, {} B resident (flat after warmup), {} B churn absorbed",
            stats.alloc_hit_rate() * 100.0,
            stats.alloc_resident_bytes,
            stats.alloc_leased_bytes
        );
    }
    if args.pool_report {
        if args.pool {
            print_pool_report(&znn_alloc::PoolSet::global());
        } else {
            println!("pool report: pooling disabled (--no-pool), nothing to report");
        }
    }
    ExitCode::SUCCESS
}

/// Dumps per-size-class occupancy/hit-rate rows of the shared chunk
/// pool (`--pool-report`).
fn print_pool_report(pools: &znn_alloc::PoolSet) {
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
