//! Table II — complexity of a fully-connected convolutional layer:
//! direct vs FFT vs FFT-memoized, analytic and measured.
//!
//! The measured columns train a one-layer net (`f` inputs, `f'`
//! outputs, one `k³` conv edge per pair) through the real engine at one
//! worker: seconds per `Znn::train_step`, i.e. one forward, backward and
//! update round of the conv layer, under `ForceDirect`, `ForceFft`
//! without memoization and `ForceFft` with it. The shape to check is
//! *who wins where*, and that memoization cuts the FFT totals by
//! roughly a third.

use znn_bench::{fmt, header, row, time_per_round};
use znn_core::{ConvPolicy, TrainConfig, Znn};
use znn_graph::builder::NetBuilder;
use znn_tensor::{ops, Vec3};
use znn_plan::flops::{ConvAlgorithm, LayerModel};

/// Seconds per training round of an `f → fp` layer of `k³` kernels on
/// an `n³` input, single worker.
fn measure(f: usize, fp: usize, n: usize, k: usize, conv: ConvPolicy, memoize_fft: bool) -> f64 {
    let (graph, _) = NetBuilder::new("table2", f)
        .conv(fp, Vec3::cube(k))
        .build()
        .expect("valid net");
    let out = Vec3::cube(n - k + 1);
    let cfg = TrainConfig {
        workers: 1,
        conv,
        memoize_fft,
        ..Default::default()
    };
    let znn = Znn::new(graph, out, cfg).expect("valid geometry");
    let inputs: Vec<_> = (0..f).map(|i| ops::random(znn.input_shape(), i as u64)).collect();
    let targets: Vec<_> = (0..fp).map(|i| ops::random(out, 100 + i as u64)).collect();
    time_per_round(1, 3, || {
        znn.train_step(&inputs, &targets);
    })
}

fn main() {
    println!("# Table II — fully-connected conv layer (f -> f'), n input, k kernel\n");
    let f = 4usize;
    let fp = 4usize;
    header(&[
        "n", "k",
        "direct total FLOPs", "fft total FLOPs", "memoized total FLOPs",
        "measured direct s", "measured fft s", "measured memoized s",
    ]);
    for (n, k) in [(20usize, 3usize), (20, 5), (24, 7), (24, 9)] {
        let model = LayerModel::Conv {
            n: n as f64,
            k: k as f64,
            f_in: f as f64,
            f_out: fp as f64,
        };
        let d = model.flops_default(ConvAlgorithm::Direct).total();
        let ff = model.flops_default(ConvAlgorithm::Fft).total();
        let fm = model.flops_default(ConvAlgorithm::FftMemoized).total();
        let td = measure(f, fp, n, k, ConvPolicy::ForceDirect, false);
        let tf = measure(f, fp, n, k, ConvPolicy::ForceFft, false);
        let tm = measure(f, fp, n, k, ConvPolicy::ForceFft, true);
        row(&[
            n.to_string(),
            k.to_string(),
            fmt(d),
            fmt(ff),
            fmt(fm),
            fmt(td),
            fmt(tf),
            fmt(tm),
        ]);
    }
    println!("\nexpected shape: direct wins at small k, FFT wins at large k;");
    println!("memoized/fft ratio approaches 2/3 for wide layers.");
}
