//! Direct vs FFT convolution across kernel sizes — the microbenchmark
//! behind the §IV method choice and the Fig 8/9 crossovers. Each case
//! is one unshared convolution: the direct kernels of `znn_ops::conv`
//! against the one-shot `znn_fft::fft_conv_valid`.
//!
//! `direct_passes` times the three direct passes of one conv edge —
//! forward, input gradient, kernel gradient — as the engine runs them
//! (on one `conv::DirectConv`), at every conv
//! geometry of the two direct-convolution benchmark nets:
//! `scalability_net_3d(8)` at output 4³ (3³ kernels at sparsity
//! 1/2/4/4 onto 27³/22³/12³/4³) and the sparse `comparison_net(3, 5²,
//! 2²)` at output 16² (flat 5² kernels onto 91²…16²).

use criterion::{criterion_group, criterion_main, Criterion};
use std::collections::BTreeSet;
use std::hint::black_box;
use std::time::Duration;
use znn_fft::{fft_conv_valid, FftEngine};
use znn_graph::builder::{comparison_net, scalability_net_3d};
use znn_graph::{shapes, EdgeOp, Graph};
use znn_ops::conv;
use znn_tensor::{ops, pad, Tensor3, Vec3};

/// The distinct `(input shape, kernel, sparsity)` of a net's conv edges
/// at output shape `out`, first layer first.
fn conv_geometries(g: &Graph, out: Vec3) -> Vec<(Vec3, Vec3, Vec3)> {
    let input = shapes::required_input_shape(g, out).expect("net fits");
    let shape = shapes::infer_shapes(g, input).expect("shapes");
    let mut seen = BTreeSet::new();
    g.edges()
        .iter()
        .filter_map(|e| match e.op {
            EdgeOp::Conv { kernel, sparsity } => Some((shape[&e.from], kernel, sparsity)),
            _ => None,
        })
        .filter(|&(n, k, s)| seen.insert((n.0, k.0, s.0)))
        .collect()
}

fn bench_direct_passes(c: &mut Criterion) {
    let mut group = c.benchmark_group("direct_passes");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(100))
        .measurement_time(Duration::from_millis(300));
    let nets = [
        ("3d", scalability_net_3d(8).0, Vec3::cube(4)),
        ("2d", comparison_net(3, Vec3::flat(5, 5), Vec3::flat(2, 2), true).0, Vec3::flat(16, 16)),
    ];
    for (name, g, out) in nets {
        for (n, k, s) in conv_geometries(&g, out) {
            let img = ops::random(n, 1);
            let ker = ops::random(k, 2);
            let y = conv::valid_shape(n, k, s).expect("valid geometry");
            let grad = ops::random(y, 3);
            let id = format!("{name}/k{}_s{}_out{}", k[2], s[2], y[2]);
            // as the engine runs them: tables built once, outputs into
            // zeroed buffers
            let geometry = conv::DirectConv::new(n, k, s);
            let (mut fwd, mut bwd) = (Tensor3::zeros(y), Tensor3::zeros(n));
            group.bench_function(format!("forward/{id}"), |b| {
                b.iter(|| geometry.forward_into(black_box(&img), &ker, &mut fwd))
            });
            group.bench_function(format!("input_gradient/{id}"), |b| {
                b.iter(|| geometry.input_gradient_into(black_box(&grad), &ker, &mut bwd))
            });
            group.bench_function(format!("kernel_gradient/{id}"), |b| {
                b.iter(|| black_box(geometry.kernel_gradient(black_box(&img), &grad)))
            });
        }
    }
    group.finish();
}

fn bench_conv(c: &mut Criterion) {
    let engine = FftEngine::new();
    let mut group = c.benchmark_group("conv_valid");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(100))
        .measurement_time(Duration::from_millis(400));
    for k in [3usize, 5, 7] {
        let n = Vec3::cube(16);
        let img = ops::random(n, 1);
        let ker = ops::random(Vec3::cube(k), 2);
        group.bench_function(format!("Direct/k{k}"), |b| {
            b.iter(|| black_box(conv::conv_valid(black_box(&img), black_box(&ker), Vec3::one())))
        });
        // warm the plan cache outside the measurement
        let _ = fft_conv_valid(&engine, &img, &ker);
        group.bench_function(format!("Fft/k{k}"), |b| {
            b.iter(|| black_box(fft_conv_valid(&engine, black_box(&img), black_box(&ker))))
        });
    }
    group.finish();

    let mut group = c.benchmark_group("kernel_gradient");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(100))
        .measurement_time(Duration::from_millis(400));
    let n = Vec3::cube(16);
    let k = Vec3::cube(5);
    let img = ops::random(n, 3);
    let g = ops::random(n.valid_conv(k).unwrap(), 4);
    group.bench_function("Direct", |b| {
        b.iter(|| black_box(conv::kernel_gradient(&img, &g, k, Vec3::one())))
    });
    // §III-B: the kernel gradient is the valid convolution of the
    // reflected image with the output gradient
    let _ = fft_conv_valid(&engine, &pad::flip(&img), &g);
    group.bench_function("Fft", |b| {
        b.iter(|| black_box(fft_conv_valid(&engine, &pad::flip(&img), &g)))
    });
    group.finish();
}

criterion_group!(benches, bench_conv, bench_direct_passes);
criterion_main!(benches);
