//! Planner report — the `znn-plan` cost-model planner vs the grid of
//! fixed strategies it replaces, on the paper's benchmark geometries.
//!
//! For each net the `Autotune` plan is resolved against the detected
//! machine model; every fixed strategy (direct, FFT with smooth pads,
//! FFT with pow2 pads) is a `NetPlan::force` plan run via
//! `Znn::with_plan`, priced through the *same* model. All four engines
//! are built and warmed up front, then timed round-robin, rotating
//! which goes first, and each reports its median round. The headline
//! number per net is the gap `auto_measured / best_fixed_measured`.
//!
//! Emits `BENCH_plan.json`: machine prior, per-edge chosen plan,
//! predicted vs measured round times, and a per-net verdict. The verdict is the
//! ISSUE's acceptance bound — `Auto` within 15% of the best fixed
//! strategy (an absolute sub-3ms slack absorbs scheduler noise on tiny
//! rounds; on a shared single-core host that noise rivals whole
//! rounds). **The bin exits non-zero if any verdict fails**, so a
//! regressed planner cannot silently refresh the committed JSON.
//!
//! `--smoke` shrinks nets and round counts for CI.

use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;
use znn_core::{TrainConfig, Znn};
use znn_graph::builder::{comparison_net, scalability_net_2d, scalability_net_3d};
use znn_graph::{EdgeOp, Graph};
use znn_ops::ConvMethod;
use znn_plan::{NetPlan, PlanConfig, Planner};
use znn_tensor::{ops, Vec3};

/// Auto must be within 15% of the best fixed strategy…
const GAP_BOUND: f64 = 1.15;
/// …or within this absolute slack of it (scheduler noise floor, µs).
const ABS_SLACK_US: f64 = 3_000.0;

struct NetCase {
    name: &'static str,
    graph: Graph,
    out: Vec3,
}

struct FixedResult {
    label: String,
    method: ConvMethod,
    pow2: bool,
    predicted_us: f64,
    measured_us: f64,
}

fn nets(smoke: bool) -> Vec<NetCase> {
    let (fig8, _) = comparison_net(2, Vec3::flat(5, 5), Vec3::flat(2, 2), true);
    let (fig9, _) = comparison_net(2, Vec3::cube(5), Vec3::cube(2), true);
    // anisotropic EM-stack geometry: thin z, wide xy, mixed kernel
    let (aniso, _) = comparison_net(2, Vec3::new(2, 5, 5), Vec3::new(1, 2, 2), true);
    let (flat2d, _) = scalability_net_2d(2);
    let (vol3d, _) = scalability_net_3d(2);
    if smoke {
        vec![
            NetCase { name: "fig9_3d", graph: fig9, out: Vec3::cube(2) },
            NetCase { name: "flat_2d", graph: flat2d, out: Vec3::flat(4, 4) },
        ]
    } else {
        vec![
            NetCase { name: "fig8_2d", graph: fig8, out: Vec3::flat(16, 16) },
            NetCase { name: "fig9_3d", graph: fig9, out: Vec3::cube(4) },
            NetCase { name: "aniso", graph: aniso, out: Vec3::new(2, 8, 8) },
            NetCase { name: "flat_2d", graph: flat2d, out: Vec3::flat(8, 8) },
            NetCase { name: "vol_3d", graph: vol3d, out: Vec3::cube(4) },
        ]
    }
}

/// Median wall time per round of each engine over `rounds` measured
/// rounds after `warmup` unmeasured ones. A round is one training step
/// plus its flushed updates, so no engine's pending work runs while
/// another is timed. The engines are timed round-robin, one round each
/// per pass with the first engine rotating between passes, so host
/// drift spreads over all of them alike.
fn median_round_us(
    engines: &[Znn],
    out: Vec3,
    warmup: usize,
    rounds: usize,
    seed: u64,
) -> Vec<f64> {
    let x = ops::random(engines[0].input_shape(), seed);
    let t = ops::random(out, seed + 1).map(|v| 0.3 * v);
    let round = |znn: &Znn| {
        znn.train_step(std::slice::from_ref(&x), std::slice::from_ref(&t));
        znn.flush_updates();
    };
    for znn in engines {
        for _ in 0..warmup {
            round(znn);
        }
    }
    let mut samples = vec![Vec::with_capacity(rounds); engines.len()];
    for pass in 0..rounds {
        for i in 0..engines.len() {
            let e = (pass + i) % engines.len();
            let t0 = Instant::now();
            round(&engines[e]);
            samples[e].push(t0.elapsed().as_micros() as f64);
        }
    }
    samples
        .into_iter()
        .map(|mut s| {
            s.sort_by(f64::total_cmp);
            s[s.len() / 2]
        })
        .collect()
}

/// The default config at `workers`; every run enters through
/// `with_plan`, so its conv policy is never consulted.
fn config(workers: usize) -> TrainConfig {
    TrainConfig {
        workers,
        ..Default::default()
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let workers = std::thread::available_parallelism()
        .map(|v| v.get())
        .unwrap_or(1);
    let (warmup, rounds) = if smoke { (1, 9) } else { (2, 15) };

    let machine = znn_plan::Machine::host();
    println!(
        "# plan report — Auto vs the fixed-strategy grid ({} workers)\n",
        workers
    );
    println!(
        "machine prior: {} ({} cores, {:.2} GFLOP/s, {:.2} GB/s)\n",
        machine.name, machine.cores, machine.gflops, machine.bandwidth_gbs
    );

    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"smoke\": {smoke},");
    let _ = writeln!(json, "  \"workers\": {workers},");
    let _ = writeln!(
        json,
        "  \"machine\": {{\"name\": \"{}\", \"cores\": {}, \"gflops\": {:.3}, \
         \"bandwidth_gbs\": {:.3}}},",
        machine.name, machine.cores, machine.gflops, machine.bandwidth_gbs
    );
    json.push_str("  \"nets\": [\n");

    // the Auto engines run the plans of the planner that prices the grid
    let planner = Planner::new(PlanConfig::for_machine(machine.clone()));
    let mut all_pass = true;
    let mut net_records = Vec::new();
    for case in nets(smoke) {
        println!("## {}", case.name);
        let plan = Arc::new(
            planner
                .plan(&case.graph, case.out, workers, workers)
                .expect("net sizes"),
        );
        let znn = Znn::with_plan(case.graph.clone(), case.out, config(workers), Arc::clone(&plan))
            .expect("net sizes");
        let prior_us = plan.predicted_round_us;

        // the fixed grid: direct once (pads are an FFT knob), FFT at
        // both pad shapes. Priced and measured through the same model
        // as `prior_us`, so the argmin property is visible in the JSON.
        let grid = [
            (ConvMethod::Direct, false),
            (ConvMethod::Fft, false),
            (ConvMethod::Fft, true),
        ];
        let mut engines = Vec::new();
        let mut priced = Vec::new();
        for (method, pow2) in grid {
            let forced = Arc::new(NetPlan::force(&case.graph, case.out, method, 1, pow2).unwrap());
            let predicted_us = planner
                .price(&case.graph, case.out, workers, &forced)
                .unwrap();
            priced.push(predicted_us);
            engines.push(
                Znn::with_plan(case.graph.clone(), case.out, config(workers), forced)
                    .expect("net sizes"),
            );
        }
        engines.push(znn);
        let mut measured = median_round_us(&engines, case.out, warmup, rounds, 11);
        let auto_us = measured.pop().expect("the Auto engine is listed last");
        let mut fixed = Vec::new();
        let rows = grid.into_iter().zip(priced).zip(measured);
        for (((method, pow2), predicted_us), measured_us) in rows {
            let label = match (method, pow2) {
                (ConvMethod::Direct, _) => "direct",
                (ConvMethod::Fft, false) => "fft",
                (ConvMethod::Fft, true) => "fft_pow2",
            };
            println!("  fixed {label:>14}: predicted {predicted_us:>8.0}µs, measured {measured_us:>8.0}µs");
            fixed.push(FixedResult {
                label: label.to_string(),
                method,
                pow2,
                predicted_us,
                measured_us,
            });
        }

        let best = fixed
            .iter()
            .map(|f| f.measured_us)
            .fold(f64::INFINITY, f64::min);
        let gap = auto_us / best;
        let pass = gap <= GAP_BOUND || auto_us - best <= ABS_SLACK_US;
        all_pass &= pass;
        println!("  auto: predicted {prior_us:.0}µs, measured {auto_us:.0}µs");
        println!(
            "  gap vs best fixed ({best:.0}µs): {gap:.3} -> {}\n",
            if pass { "pass" } else { "FAIL" }
        );

        let mut rec = String::new();
        let _ = writeln!(rec, "    {{\"net\": \"{}\",", case.name);
        // the per-edge chosen plan, deduped by conv geometry
        let mut seen: Vec<String> = Vec::new();
        let mut layers = Vec::new();
        for (i, e) in case.graph.edges().iter().enumerate() {
            if let EdgeOp::Conv { kernel, .. } = e.op {
                let ep = plan.edges[i].unwrap();
                let key = format!(
                    "{{\"kernel\": \"{kernel}\", \"method\": \"{:?}\", \"pad\": \"{}\", \
                     \"predicted_us\": {:.1}}}",
                    ep.method, ep.pad, ep.predicted_us
                );
                if !seen.contains(&key) {
                    seen.push(key.clone());
                    layers.push(format!("       {key}"));
                }
            }
        }
        let _ = writeln!(rec, "     \"layers\": [\n{}\n     ],", layers.join(",\n"));
        let _ = writeln!(rec, "     \"predicted_round_us_prior\": {prior_us:.1},");
        let _ = writeln!(rec, "     \"auto_measured_us\": {auto_us:.1},");
        let fixed_rows: Vec<String> = fixed
            .iter()
            .map(|f| {
                format!(
                    "       {{\"strategy\": \"{}\", \"method\": \"{:?}\", \
                     \"pow2\": {}, \"predicted_us\": {:.1}, \"measured_us\": {:.1}}}",
                    f.label, f.method, f.pow2, f.predicted_us, f.measured_us
                )
            })
            .collect();
        let _ = writeln!(rec, "     \"fixed\": [\n{}\n     ],", fixed_rows.join(",\n"));
        let _ = writeln!(rec, "     \"best_fixed_us\": {best:.1},");
        let _ = writeln!(rec, "     \"gap\": {gap:.4},");
        let _ = write!(rec, "     \"verdict\": \"{}\"}}", if pass { "pass" } else { "fail" });
        net_records.push(rec);
    }
    json.push_str(&net_records.join(",\n"));
    json.push_str("\n  ],\n");
    let _ = writeln!(json, "  \"gap_bound\": {GAP_BOUND},");
    let _ = writeln!(json, "  \"all_pass\": {all_pass}");
    json.push_str("}\n");

    match std::fs::write("BENCH_plan.json", &json) {
        Ok(()) => println!("wrote BENCH_plan.json"),
        Err(e) => {
            eprintln!("could not write BENCH_plan.json: {e}");
            std::process::exit(1);
        }
    }
    if !all_pass {
        eprintln!("verdict failed: Auto exceeded the {GAP_BOUND}x gap bound on some net");
        std::process::exit(1);
    }
}
