//! Figs 6 and 7 — maximum achieved speedup vs network width, 2D
//! (Fig 6, FFT convolution) and 3D (Fig 7, direct convolution), one
//! line per machine, all hardware threads in use.

use znn_graph::builder::{scalability_net_2d, scalability_net_3d};
use znn_ops::ConvMethod;
use znn_plan::cost::task_costs;
use znn_plan::{simulate, Machine, NetPlan, SimConfig};
use znn_tensor::Vec3;

fn main() {
    let widths = [5usize, 10, 15, 20, 25, 30, 40, 50, 60, 80, 100, 120];
    for (fig, dim, method, out_shape) in [
        ("Fig 6", "2D", ConvMethod::Fft, Vec3::flat(48, 48)),
        ("Fig 7", "3D", ConvMethod::Direct, Vec3::cube(12)),
    ] {
        println!("# {fig} — achieved speedup vs width ({dim})\n");
        println!("width: {widths:?}");
        for machine in Machine::table_v() {
            let series: Vec<String> = widths
                .iter()
                .map(|&w| {
                    let (g, _) = if dim == "2D" {
                        scalability_net_2d(w)
                    } else {
                        scalability_net_3d(w)
                    };
                    let plan = NetPlan::force(&g, out_shape, method, 1, false).unwrap();
                    let (tg, costs) = task_costs(&g, out_shape, &plan, true).unwrap();
                    let r = simulate(
                        &tg,
                        &costs,
                        &machine,
                        &SimConfig {
                            workers: machine.hw_threads,
                            rounds: 2,
                            ..Default::default()
                        },
                    );
                    format!("{:.1}", r.speedup)
                })
                .collect();
            println!("{:<28} [{}]", machine.name, series.join(", "));
        }
        println!();
    }
    println!("shape check: speedup rises with width and saturates near (or a");
    println!("bit above) the core count of each machine; the many-core Phi");
    println!("needs wider networks (>=80) to saturate than the Xeons (>=30).");
}
