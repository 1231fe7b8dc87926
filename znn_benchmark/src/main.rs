//! `znn_benchmark`: one repeatable end-to-end + per-layer benchmark for
//! ZNN training and serving. See `README.md` next to this crate.
//!
//! ```text
//! znn_benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out FILE]
//! znn_benchmark set --out FILE [--runs N] [--seed N] [--seconds S] [--trace 0|1]
//! znn_benchmark compare A B
//! znn_benchmark manifest
//! znn_benchmark --smoke
//! ```

mod common;
mod compare;
mod host;
mod json;
mod manifest;
mod micro;
mod replay;
mod serve;
mod stats;
mod trace;
mod train;

use common::{Outcome, RunArgs};
use json::Json;
use manifest::{Better, END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS};
use std::io::Write;
use std::process::ExitCode;
use trace::Tracer;

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  znn_benchmark --workload <{}> --seed <n> --seconds <s> --trace <0|1> [--out FILE]\n  \
         znn_benchmark set --out FILE [--runs N] [--seed N] [--seconds S] [--trace 0|1]\n  \
         znn_benchmark compare A B\n  znn_benchmark manifest\n  znn_benchmark --smoke",
        WORKLOADS.map(|w| w.name).join("|")
    );
    ExitCode::from(2)
}

/// `--key value` pairs after the subcommand.
fn flag<'a>(args: &'a [String], key: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == key)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("manifest") => {
            print!("{}", manifest::manifest().render_pretty());
            ExitCode::SUCCESS
        }
        Some("compare") => match (args.get(1), args.get(2)) {
            (Some(a), Some(b)) => compare::run(a, b),
            _ => usage(),
        },
        Some("set") => run_set(&args[1..]),
        Some("--smoke") => smoke(),
        Some(_) if flag(&args, "--workload").is_some() => run_one(&args),
        _ => usage(),
    }
}

fn parse_run_args(args: &[String]) -> Option<RunArgs> {
    Some(RunArgs {
        seed: flag(args, "--seed").map_or(Some(1), |s| s.parse().ok())?,
        seconds: flag(args, "--seconds")
            .map_or(Some(RUN_SECONDS as f64), |s| s.parse().ok())
            .filter(|s: &f64| s.is_finite() && *s > 0.0)?,
        trace: match flag(args, "--trace") {
            None | Some("0") => false,
            Some("1") => true,
            Some(_) => return None,
        },
    })
}

/// Runs one workload and prints its report; the last stdout line is the
/// result object.
fn run_one(args: &[String]) -> ExitCode {
    let workload = flag(args, "--workload").expect("checked by the caller");
    let Some(run) = parse_run_args(args) else {
        return usage();
    };
    if !WORKLOADS.iter().any(|w| w.name == workload) {
        eprintln!("unknown workload '{workload}'");
        return usage();
    }
    let tracer = Tracer::new(run.trace);
    let outcome = match train::spec(workload) {
        Some(spec) if run.trace => train::run_traced(&spec, &run, &tracer),
        Some(spec) => train::run_e2e(&spec, &run),
        None if run.trace => serve::run_traced(&run, &tracer),
        None => serve::run_e2e(&run),
    };
    if run.trace {
        let path = host::span_path(workload, run.seed);
        match tracer.write_jsonl(&path) {
            Ok(()) => println!("spans: {} written to {}", tracer.len(), path.display()),
            Err(e) => println!("WARNING: could not write spans to {}: {e}", path.display()),
        }
    }
    let result = report(workload, &run, &outcome);
    if let Some(path) = flag(args, "--out") {
        let line = Json::obj([
            ("workload", Json::str(workload)),
            ("seed", Json::Num(run.seed as f64)),
            ("trace", Json::Bool(run.trace)),
            ("seconds", Json::Num(run.seconds)),
            ("result", result.clone()),
        ]);
        let appended = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .and_then(|mut f| writeln!(f, "{}", line.render()));
        if let Err(e) = appended {
            eprintln!("cannot append to {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    println!("{}", result.render());
    ExitCode::SUCCESS
}

/// Prints the host/noise header, the checks and every metric by name
/// and unit; returns the result object.
fn report(workload: &str, run: &RunArgs, o: &Outcome) -> Json {
    // the untraced run probes the host only here, after its memory
    // high-water mark was read
    let (gflops, gbs) = match (o.get("sim.host_gflops"), o.get("sim.host_gbs")) {
        (Some(f), Some(b)) => (f, b),
        _ => {
            let machine = znn_sim::Machine::detect();
            (machine.gflops, machine.bandwidth_gbs)
        }
    };
    println!(
        "== {workload}  seed {}  seconds {}  trace {} ==",
        run.seed, run.seconds, run.trace as u8
    );
    println!(
        "host: nproc {}  W {}  isa {}  sim.host_gflops {:.2}  sim.host_gbs {:.2}  steal {}  core.disturbed_share {:.3}",
        host::nproc(),
        host::workers(),
        znn_simd::isa_name(),
        gflops,
        gbs,
        o.steal_share.map_or("n/a".to_string(), |s| format!("{s:.4}")),
        o.disturbed_share,
    );
    for note in &o.notes {
        println!("note: {note}");
    }
    if o.disturbed_share > 0.5 {
        println!(
            "WARNING: more than half the ops ran over 1.25 x the fast decile; the host is busy"
        );
    }
    if let Some(share) = o.get("core.attributed_share") {
        if !(0.7..=1.3).contains(&share) {
            println!("WARNING: core.attributed_share {share:.3} is outside 0.7-1.3; the layer replay does not account for the op");
        }
    }
    for c in &o.checks {
        println!(
            "check {:<34} {}  {}",
            c.name,
            if c.ok { "ok" } else { "FAILED" },
            c.detail
        );
    }
    if let Some(why) = &o.first_failure {
        println!("first failed op: {why}");
    }
    println!("ops: attempted {}  failed {}", o.attempted, o.failed);

    let mut metrics = Vec::new();
    let mut emit = |name: &'static str,
                    unit: &'static str,
                    better: Better,
                    bound: Option<f64>,
                    required: bool| {
        let dir = if better == Better::Lower {
            "lower"
        } else {
            "higher"
        };
        let bound = bound.map_or(String::new(), |b| format!("  bound {b}"));
        match o.get(name) {
            Some(v) => {
                println!("  {name:<34} {v:>14.6} {unit:<8} ({dir} is better{bound})");
                metrics.push((
                    name.to_string(),
                    Json::obj([("value", Json::Num(v)), ("unit", Json::str(unit))]),
                ));
            }
            None if required => panic!("end-to-end metric {name} was not measured"),
            None => {
                // the result object must carry every per-layer name on
                // every traced run; a layer this workload never enters
                // did no work and took no time
                println!(
                    "  {name:<34} {:>14} {unit:<8} (not exercised by this workload)",
                    "-"
                );
                metrics.push((
                    name.to_string(),
                    Json::obj([("value", Json::Num(0.0)), ("unit", Json::str(unit))]),
                ));
            }
        }
    };
    if run.trace {
        for m in &PER_LAYER {
            emit(m.name, m.unit, m.better, None, false);
        }
    } else {
        for (m, bound) in &END_TO_END {
            emit(m.name, m.unit, m.better, Some(*bound), true);
        }
    }
    Json::Obj(vec![
        (
            "correct".to_string(),
            Json::Bool(o.checks.iter().all(|c| c.ok) && o.failed == 0),
        ),
        ("attempted".to_string(), Json::Num(o.attempted as f64)),
        ("failed".to_string(), Json::Num(o.failed as f64)),
        ("metrics".to_string(), Json::Obj(metrics)),
    ])
}

/// Runs this executable once per workload and run, appending each
/// result to `--out`. A child per run keeps `peak_rss_mb` per workload.
fn run_set(args: &[String]) -> ExitCode {
    let Some(out) = flag(args, "--out") else {
        return usage();
    };
    let runs: u64 = flag(args, "--runs")
        .and_then(|s| s.parse().ok())
        .unwrap_or(3);
    let seed0: u64 = flag(args, "--seed")
        .and_then(|s| s.parse().ok())
        .unwrap_or(1);
    let exe = std::env::current_exe().expect("own path");
    for run in 0..runs {
        for w in &WORKLOADS {
            let mut cmd = std::process::Command::new(&exe);
            cmd.args(["--workload", w.name, "--out", out])
                .args(["--seed", &(seed0 + run).to_string()])
                .args(["--seconds", flag(args, "--seconds").unwrap_or("20")])
                .args(["--trace", flag(args, "--trace").unwrap_or("0")]);
            match cmd.status() {
                Ok(s) if s.success() => {}
                Ok(s) => {
                    eprintln!("{} run {run} exited with {s}", w.name);
                    return ExitCode::FAILURE;
                }
                Err(e) => {
                    eprintln!("cannot start {}: {e}", exe.display());
                    return ExitCode::FAILURE;
                }
            }
        }
    }
    ExitCode::SUCCESS
}

/// The whole set at minimum op counts, untraced and traced, plus the
/// manifest check. Meant to finish within 30 s.
fn smoke() -> ExitCode {
    let committed = std::fs::read_to_string("BENCHMARK.json").or_else(|_| {
        std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
    });
    match committed
        .map_err(|e| e.to_string())
        .and_then(|t| Json::parse(&t))
    {
        Ok(j) if j == manifest::manifest() => println!("manifest: BENCHMARK.json matches"),
        Ok(_) => {
            eprintln!("BENCHMARK.json differs from `znn_benchmark manifest`");
            return ExitCode::FAILURE;
        }
        Err(e) => {
            eprintln!("cannot read BENCHMARK.json: {e}");
            return ExitCode::FAILURE;
        }
    }
    let exe = std::env::current_exe().expect("own path");
    for w in &WORKLOADS {
        for trace in ["0", "1"] {
            let output = std::process::Command::new(&exe)
                .args([
                    "--workload",
                    w.name,
                    "--seed",
                    "7",
                    "--seconds",
                    "0.5",
                    "--trace",
                    trace,
                ])
                .output();
            let ok = output.as_ref().is_ok_and(|o| {
                o.status.success()
                    && String::from_utf8_lossy(&o.stdout)
                        .lines()
                        .last()
                        .and_then(|l| Json::parse(l).ok())
                        .is_some_and(|j| j.get("correct") == Some(&Json::Bool(true)))
            });
            println!(
                "smoke {:<16} trace {trace}: {}",
                w.name,
                if ok { "ok" } else { "FAILED" }
            );
            if !ok {
                if let Ok(o) = output {
                    eprintln!(
                        "{}{}",
                        String::from_utf8_lossy(&o.stdout),
                        String::from_utf8_lossy(&o.stderr)
                    );
                }
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}
