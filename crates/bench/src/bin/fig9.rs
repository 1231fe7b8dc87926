//! Fig 9 — ZNN vs the layerwise baseline, 3D networks; kernels 3³, 5³,
//! 7³ and growing output patches, seconds per update.
//!
//! The paper reports that in 3D the FFT-vs-direct crossover comes at
//! much smaller kernels than in 2D, at the kernel sizes used in
//! connectomics practice. ZNN trains the sparse (max-filter) net and
//! the baseline the max-pooling net. The last line lists the rows where
//! ZNN won on this host, or "none".

use znn_baseline::LayerwiseNet;
use znn_bench::{fmt, header, row, time_per_round, wins_or_none};
use znn_core::{ConvPolicy, TrainConfig, Znn};
use znn_graph::builder::comparison_net;
use znn_ops::Loss;
use znn_tensor::{ops, Vec3};

fn main() {
    let workers = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let width = 3usize;
    let kernels = [3usize, 5, 7];
    let outputs = [1usize, 2, 4];
    println!(
        "# Fig 9 — 3D ConvNets, seconds/update (width {width}; ZNN sparse, layerwise max-pooling)\n"
    );
    let mut znn_wins = Vec::new();
    for &k in &kernels {
        println!("## kernel {k}x{k}x{k}");
        header(&["output", "ZNN (FFT) s/update", "layerwise direct s/update", "ratio direct/fft"]);
        for &o in &outputs {
            let out_shape = Vec3::cube(o);
            let kernel = Vec3::cube(k);
            let pool = Vec3::cube(2);

            let (g_sparse, _) = comparison_net(width, kernel, pool, true);
            let cfg = TrainConfig {
                workers,
                conv: ConvPolicy::ForceFft,
                memoize_fft: true,
                ..Default::default()
            };
            let znn = Znn::new(g_sparse, out_shape, cfg).unwrap();
            let x = ops::random(znn.input_shape(), 1);
            let t = ops::random(out_shape, 2).map(|v| 0.5 + 0.4 * v);
            let t_znn = time_per_round(1, 3, || {
                znn.train_step(std::slice::from_ref(&x), std::slice::from_ref(&t));
            });

            let (g_dense, _) = comparison_net(width, kernel, pool, false);
            let mut base = LayerwiseNet::new(g_dense, out_shape, 0x5EED).unwrap();
            let bx = ops::random(base.input_shape(), 3);
            let bt = ops::random(out_shape, 4).map(|v| 0.5 + 0.4 * v);
            let t_base = time_per_round(1, 3, || {
                base.train_step(std::slice::from_ref(&bx), std::slice::from_ref(&bt), Loss::Mse, 0.01);
            });

            if t_znn < t_base {
                znn_wins.push(format!("{k}^3 at {o}^3"));
            }
            row(&[
                format!("{o}^3"),
                fmt(t_znn),
                fmt(t_base),
                format!("{:.2}", t_base / t_znn),
            ]);
        }
        println!();
    }
    println!("ZNN beat the layerwise baseline at: {}", wins_or_none(&znn_wins));
}
