//! 3D r2c/c2r FFT throughput: smooth vs awkward sizes, the cost of
//! padding to a smooth transform shape, and the pruned transforms
//! against the full-box ones they replace.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use std::hint::black_box;
use std::time::Duration;
use znn_fft::{good_size, spectra, FftEngine};
use znn_tensor::{ops, pad, Image, Spectrum, Vec3};

fn bench_fft(c: &mut Criterion) {
    let engine = FftEngine::new();
    let mut group = c.benchmark_group("rfft3");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(100))
        .measurement_time(Duration::from_millis(400));
    for n in [16usize, 17, 18, 20] {
        let img = ops::random(Vec3::cube(n), 1);
        let label = format!("n{n}{}", if good_size(n) == n { "(smooth)" } else { "" });
        // warm the plan cache
        let spec = engine.rfft3(&img);
        black_box(engine.irfft3(spec.clone()));
        group.bench_function(format!("forward_{label}"), |b| {
            b.iter(|| black_box(engine.rfft3(black_box(&img))))
        });
        // the inverse consumes its spectrum, so the clone runs in
        // iter_batched's setup, off the clock
        group.bench_function(format!("inverse_{label}"), |b| {
            b.iter_batched(
                || spec.clone(),
                |s| black_box(engine.irfft3(s)),
                BatchSize::PerIteration,
            )
        });
    }
    group.finish();

    let mut group = c.benchmark_group("padded_transform");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(100))
        .measurement_time(Duration::from_millis(400));
    let img = ops::random(Vec3::cube(13), 2);
    let raw = Vec3::cube(13 + 4); // 17 per axis: not smooth
    let smooth = Vec3::cube(good_size(13 + 4)); // 18 per axis
    let _ = engine.forward_padded(&img, raw);
    let _ = engine.forward_padded(&img, smooth);
    group.bench_function("pad_to_exact_17", |b| {
        b.iter(|| black_box(engine.forward_padded(&img, raw)))
    });
    group.bench_function("pad_to_smooth_18", |b| {
        b.iter(|| black_box(engine.forward_padded(&img, smooth)))
    });
    group.finish();
}

/// The pruned transforms of the FFT training path, each beside the
/// full-box transform it replaces, at `train3d_fft`'s geometries on one
/// thread: kernel spectra, the forward-node crop and the kernel-gradient
/// lattice.
fn bench_pruned(c: &mut Criterion) {
    let engine = FftEngine::new();
    let mut group = c.benchmark_group("pruned");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(100))
        .measurement_time(Duration::from_millis(400));
    let k = Vec3::cube(5);
    let w = ops::random(k, 3);
    for (s, m) in [(1usize, 60usize), (4, 40)] {
        let (s, m) = (Vec3::cube(s), Vec3::cube(m));
        let padded = pad::pad(&pad::dilate(&w, s), m, Vec3::zero());
        let label = format!("k5_s{}_to_{}", s[0], m[0]);
        group.bench_function(format!("kernel_spectrum_{label}"), |b| {
            b.iter(|| black_box(spectra::kernel_spectrum(&engine, &w, s, m)))
        });
        group.bench_function(format!("kernel_spectrum_{label}_full_box"), |b| {
            b.iter(|| black_box(engine.rfft3(&padded)))
        });
    }
    let m = Vec3::cube(60);
    let spec = engine.rfft3(&ops::random(m, 4));
    let inverses: [(&str, &dyn Fn(Spectrum) -> Image); 3] = [
        ("inverse_crop_51_of_60", &|s| {
            engine.inverse_real(s, Vec3::cube(4), Vec3::cube(51))
        }),
        ("kernel_gradient_5_of_60", &|s| {
            spectra::kernel_gradient_from_corr(&engine, s, k, Vec3::one())
        }),
        ("inverse_60_full_box", &|s| engine.irfft3(s)),
    ];
    for (name, inverse) in inverses {
        // the inverse consumes its spectrum, so the clone runs in
        // iter_batched's setup, off the clock
        group.bench_function(name, |b| {
            b.iter_batched(
                || spec.clone(),
                |s| black_box(inverse(s)),
                BatchSize::PerIteration,
            )
        });
    }
    group.finish();
}

criterion_group!(benches, bench_fft, bench_pruned);
criterion_main!(benches);
