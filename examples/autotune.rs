//! Watch the cost-model planner (`znn-plan`) choose direct vs FFT
//! convolution and pad shapes per conv edge — then
//! verify the planned engine agrees numerically with both forced
//! paths.
//!
//! ```sh
//! cargo run --release --example autotune
//! ```

use znn::core::{ConvPolicy, TrainConfig, Znn};
use znn::graph::NetBuilder;
use znn::ops::Transfer;
use znn::plan::Machine;
use znn::tensor::{ops, Vec3};

fn main() {
    // small kernels early (direct should win), large kernels late (FFT
    // should win) — a geometry mix that makes the planner earn its keep
    let (graph, _) = NetBuilder::new("tuned", 1)
        .conv(4, Vec3::cube(2))
        .transfer(Transfer::Relu)
        .conv(4, Vec3::cube(7))
        .transfer(Transfer::Relu)
        .conv(1, Vec3::cube(2))
        .build()
        .unwrap();

    let out_shape = Vec3::cube(3);
    // the default policy (`ConvPolicy::Autotune`) prices the theory
    // FLOP model through the detected model of this host
    let machine = Machine::host();
    println!(
        "machine prior: {} ({} cores, {:.1} GFLOP/s, {:.1} GB/s)",
        machine.name, machine.cores, machine.gflops, machine.bandwidth_gbs,
    );
    let planned = Znn::new(graph.clone(), out_shape, TrainConfig::default()).unwrap();

    let plan = planned.net_plan();
    println!("plan: predicted round = {:.0}µs", plan.predicted_round_us);
    println!("per conv geometry:");
    let mut seen: Vec<Vec3> = Vec::new();
    for (i, e) in graph.edges().iter().enumerate() {
        if let znn::graph::EdgeOp::Conv { kernel, .. } = e.op {
            if seen.contains(&kernel) {
                continue;
            }
            seen.push(kernel);
            let ep = plan.edges[i].unwrap();
            println!(
                "  kernel {kernel}: {:?} (pad {}, {:.1}µs predicted)",
                ep.method, ep.pad, ep.predicted_us
            );
        }
    }

    // the planned engine and both forced paths agree numerically
    let x = ops::random(planned.input_shape(), 5);
    let y_planned = planned.forward(std::slice::from_ref(&x)).remove(0);
    for policy in [ConvPolicy::ForceDirect, ConvPolicy::ForceFft] {
        let forced = Znn::new(
            graph.clone(),
            out_shape,
            TrainConfig {
                conv: policy,
                ..Default::default()
            },
        )
        .unwrap();
        let y = forced.forward(std::slice::from_ref(&x)).remove(0);
        let d = y.max_abs_diff(&y_planned);
        println!("{policy:?} max deviation from planned output: {d:.2e}");
        assert!(d < 1e-3);
    }
    println!("all convolution paths agree.");
}
