//! §X — scheduling-policy ablation: the paper's priority scheduler vs
//! FIFO, LIFO and work stealing.
//!
//! Simulated makespans come from the discrete-event scheduler running
//! the real task graph on the Table V machines; the host rows run the
//! real engine under each queue policy on this machine's threads.
//! `--smoke` shrinks the networks and rounds so CI can keep this bin
//! building and running without paying for the full ablation.
//!
//! Emits `BENCH_sched.json` — simulated makespans per policy per
//! network plus the host rows — so the scheduling trajectory is
//! tracked across PRs like every other bench bin.

use std::fmt::Write as _;
use znn_bench::{fmt, header, row, time_per_round};
use znn_core::{ConvPolicy, TrainConfig, Znn};
use znn_graph::builder::{scalability_net_2d, scalability_net_3d};
use znn_ops::ConvMethod;
use znn_plan::cost::task_costs;
use znn_plan::{simulate, Machine, NetPlan, SimConfig};
use znn_sched::QueuePolicy;
use znn_tensor::{ops, Vec3};

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let width = if smoke { 4 } else { 20 };
    let sim_rounds = if smoke { 1 } else { 2 };
    println!("# §X — scheduling ablation (simulated makespan, lower is better)\n");
    let machine = Machine::xeon_e5_18core();
    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"smoke\": {smoke},");
    let _ = writeln!(json, "  \"sim_machine\": \"{}\",", machine.name);
    let _ = writeln!(json, "  \"sim_workers\": 18,");
    json.push_str("  \"simulated\": [\n");
    header(&["network", "priority", "fifo", "lifo"]);
    let mut recs = Vec::new();
    for (name, key, tgc) in [
        (format!("2D width {width}"), "net2d", {
            let (g, _) = scalability_net_2d(width);
            let plan = NetPlan::force(&g, Vec3::flat(48, 48), ConvMethod::Fft, 1, false).unwrap();
            task_costs(&g, Vec3::flat(48, 48), &plan, true).unwrap()
        }),
        (format!("3D width {width}"), "net3d", {
            let (g, _) = scalability_net_3d(width);
            let plan = NetPlan::force(&g, Vec3::cube(12), ConvMethod::Direct, 1, false).unwrap();
            task_costs(&g, Vec3::cube(12), &plan, false).unwrap()
        }),
    ] {
        let (tg, costs) = tgc;
        let run = |policy| {
            simulate(
                &tg,
                &costs,
                &machine,
                &SimConfig {
                    workers: 18,
                    policy,
                    rounds: sim_rounds,
                    ..Default::default()
                },
            )
            .makespan
        };
        let (pri, fifo, lifo) = (
            run(QueuePolicy::Priority),
            run(QueuePolicy::Fifo),
            run(QueuePolicy::Lifo),
        );
        row(&[name.clone(), fmt(pri), fmt(fifo), fmt(lifo)]);
        recs.push(format!(
            "    {{\"net\": \"{key}\", \"width\": {width}, \"priority_s\": {pri:.6e}, \
             \"fifo_s\": {fifo:.6e}, \"lifo_s\": {lifo:.6e}}}"
        ));
    }
    json.push_str(&recs.join(",\n"));
    json.push_str("\n  ],\n");
    println!("\n(see the `queue` criterion bench for the heap-of-lists' cost");
    println!("against a binary heap over every task.)\n");

    println!("# host rows: real engine under each policy (s/update)\n");
    header(&["policy", "s/update"]);
    let (g, _) = scalability_net_3d(if smoke { 2 } else { 4 });
    let policies: &[QueuePolicy] = if smoke {
        &[QueuePolicy::Priority]
    } else {
        &[QueuePolicy::Priority, QueuePolicy::Fifo, QueuePolicy::Lifo]
    };
    let (warm, reps) = if smoke { (0, 1) } else { (1, 4) };
    json.push_str("  \"host\": [\n");
    let mut recs = Vec::new();
    for &policy in policies {
        let cfg = TrainConfig {
            workers: std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
            queue: policy,
            conv: ConvPolicy::ForceDirect,
            ..Default::default()
        };
        let znn = Znn::new(g.clone(), Vec3::cube(4), cfg).unwrap();
        let x = ops::random(znn.input_shape(), 1);
        let t = ops::random(Vec3::cube(4), 2);
        let dt = time_per_round(warm, reps, || {
            znn.train_step(std::slice::from_ref(&x), std::slice::from_ref(&t));
        });
        row(&[format!("{policy:?}"), fmt(dt)]);
        recs.push(format!(
            "    {{\"policy\": \"{policy:?}\", \"s_per_update\": {dt:.6e}}}"
        ));
    }
    json.push_str(&recs.join(",\n"));
    json.push_str("\n  ]\n}\n");

    match std::fs::write("BENCH_sched.json", &json) {
        Ok(()) => println!("\nwrote BENCH_sched.json"),
        Err(e) => {
            eprintln!("\ncould not write BENCH_sched.json: {e}");
            std::process::exit(1);
        }
    }
}
