//! Fig 8 — ZNN vs the layerwise direct-convolution baseline, 2D
//! networks, seconds per update as kernel size and output patch vary.
//!
//! The paper ran Caffe/Theano on a Titan X; our comparator is the
//! layer-at-a-time direct-convolution engine (`znn-baseline`) — the
//! algorithmic content of those frameworks: one layer at a time, a
//! barrier between layers, direct convolution. ZNN runs
//! its FFT path with memoization, as its autotuner chose in the paper.
//! Both engines train the same max-pooling network. Sizes are scaled
//! down from the paper's width-40 nets so the sweep finishes on a
//! laptop. The paper found ZNN winning at large kernels and the direct
//! baseline at small ones; the last line lists the rows where ZNN won
//! on this host, or "none".

use znn_baseline::LayerwiseNet;
use znn_bench::{fmt, header, row, time_per_round, wins_or_none};
use znn_core::{ConvPolicy, TrainConfig, Znn};
use znn_graph::builder::comparison_net;
use znn_ops::Loss;
use znn_tensor::{ops, Vec3};

fn main() {
    let workers = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let width = 4usize;
    let kernels = [4usize, 6, 8, 12];
    let outputs = [1usize, 2, 4, 8];
    println!("# Fig 8 — 2D ConvNets, seconds/update (width {width}, max-pooling net)\n");
    let mut znn_wins = Vec::new();
    for &k in &kernels {
        println!("## kernel {k}x{k}");
        header(&["output", "ZNN (FFT) s/update", "layerwise direct s/update", "winner"]);
        for &o in &outputs {
            let out_shape = Vec3::flat(o, o);
            let kernel = Vec3::flat(k, k);
            let pool = Vec3::flat(2, 2);

            // both engines run the same max-pooling network
            let (g, _) = comparison_net(width, kernel, pool, false);
            let cfg = TrainConfig {
                workers,
                conv: ConvPolicy::ForceFft,
                memoize_fft: true,
                ..Default::default()
            };
            let znn = Znn::new(g.clone(), out_shape, cfg).unwrap();
            let x = ops::random(znn.input_shape(), 1);
            let t = ops::random(out_shape, 2).map(|v| 0.5 + 0.4 * v);
            let t_znn = time_per_round(1, 3, || {
                znn.train_step(std::slice::from_ref(&x), std::slice::from_ref(&t));
            });

            // baseline: direct conv, layer-at-a-time parallelism
            let mut base = LayerwiseNet::new(g, out_shape, 0x5EED).unwrap();
            let bx = ops::random(base.input_shape(), 3);
            let bt = ops::random(out_shape, 4).map(|v| 0.5 + 0.4 * v);
            let t_base = time_per_round(1, 3, || {
                base.train_step(std::slice::from_ref(&bx), std::slice::from_ref(&bt), Loss::Mse, 0.01);
            });

            if t_znn < t_base {
                znn_wins.push(format!("{k}x{k} at {o}x{o}"));
            }
            row(&[
                format!("{o}x{o}"),
                fmt(t_znn),
                fmt(t_base),
                if t_znn < t_base { "ZNN" } else { "baseline" }.into(),
            ]);
        }
        println!();
    }
    println!("ZNN beat the layerwise baseline at: {}", wins_or_none(&znn_wins));
}
