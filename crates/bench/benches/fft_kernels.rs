//! 1D kernel shoot-out: iterative mixed-radix Stockham vs the
//! recursive mixed-radix path it replaced, and the SIMD-batched
//! butterflies vs their scalar twins.
//!
//! The acceptance gate for the kernel rewrites: at power-of-two lengths
//! ≥ 64 *and* at 5-smooth non-power-of-two lengths (24, 48, 60, 120,
//! 240 — the sizes `good_shape` actually emits between the powers of
//! two) the iterative kernels must beat the recursive ones. Lengths are
//! benched as *batched line transforms* (one `process_with_scratch`
//! call over many contiguous lines, ~64k complex elements per call) —
//! exactly how the 3D engine drives them.
//!
//! The `fft_kernels_simd` group isolates each butterfly radix with a
//! length that exercises only that radix family (64 = radix-4 only,
//! 27 = radix-3 only, 125 = radix-5 only, 128 = radix-4 + trailing-2);
//! `simd_*` vs `scalar_*` cases share one input batch. The
//! `pointwise_simd` group does the same for the spectrum/voxel
//! elementwise layer (`znn-simd` dispatched vs pinned-scalar twins).

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::time::Duration;
use znn_fft::line::{Direction, LinePlan};
use znn_tensor::Complex32;

fn batch_for(n: usize) -> Vec<Complex32> {
    let lines = (64 * 1024 / n).max(1);
    (0..lines * n)
        .map(|i| {
            let a = ((i * 37 + 11) % 101) as f32 / 101.0 - 0.5;
            let b = ((i * 53 + 29) % 97) as f32 / 97.0 - 0.5;
            Complex32::new(a, b)
        })
        .collect()
}

fn bench_plan(c: &mut Criterion, group: &str, name: String, plan: LinePlan, batch: &[Complex32]) {
    let mut g = c.benchmark_group(group);
    g.sample_size(10)
        .warm_up_time(Duration::from_millis(100))
        .measurement_time(Duration::from_millis(500));
    let mut buf = batch.to_vec();
    let mut scratch = vec![Complex32::new(0.0, 0.0); plan.scratch_len()];
    g.bench_function(name, |b| {
        b.iter(|| {
            buf.copy_from_slice(batch);
            plan.process_with_scratch(black_box(&mut buf), &mut scratch);
            black_box(&buf);
        })
    });
    g.finish();
}

/// Iterative Stockham vs recursive mixed-radix on identical batched
/// inputs: power-of-two lengths 16–512 (the radix-4/2 stages) and
/// 5-smooth non-power-of-two lengths 24–240 (the radix-3/5 stages).
fn bench_kernels(c: &mut Criterion) {
    for n in [16usize, 32, 64, 128, 256, 512] {
        let batch = batch_for(n);
        bench_plan(
            c,
            "fft_kernels",
            format!("iterative_n{n}"),
            LinePlan::new(n, Direction::Forward),
            &batch,
        );
        bench_plan(
            c,
            "fft_kernels",
            format!("recursive_n{n}"),
            LinePlan::recursive(n, Direction::Forward),
            &batch,
        );
    }
    // the 5-smooth sweep: these lengths left the recursive fallback
    // when the radix-3/5 stages landed — the same comparison tracks
    // the win
    for n in [24usize, 48, 60, 120, 240] {
        let batch = batch_for(n);
        bench_plan(
            c,
            "fft_kernels_smooth",
            format!("iterative_n{n}"),
            LinePlan::new(n, Direction::Forward),
            &batch,
        );
        bench_plan(
            c,
            "fft_kernels_smooth",
            format!("recursive_n{n}"),
            LinePlan::recursive(n, Direction::Forward),
            &batch,
        );
    }
}

/// SIMD-batched butterflies vs their scalar twins, one case per radix
/// family. On hosts without AVX2 both plans run the scalar kernels and
/// the cases coincide — the group still runs, it just reports ~1×.
fn bench_simd_kernels(c: &mut Criterion) {
    for (label, n) in [
        ("radix4_n64", 64usize),
        ("radix3_n27", 27),
        ("radix5_n125", 125),
        ("trailing2_n128", 128),
    ] {
        let batch = batch_for(n);
        bench_plan(
            c,
            "fft_kernels_simd",
            format!("simd_{label}"),
            LinePlan::new(n, Direction::Forward),
            &batch,
        );
        bench_plan(
            c,
            "fft_kernels_simd",
            format!("scalar_{label}"),
            LinePlan::scalar(n, Direction::Forward),
            &batch,
        );
    }
}

/// Dispatched (AVX2 where detected) vs pinned-scalar pointwise kernels
/// over a spectrum-sized buffer: the complex product and the
/// conjugate product (`corr_spectrum`) that dominate the §IV
/// frequency-domain convolution, plus the real FMA
/// row the direct convolver and SGD updates lean on.
fn bench_pointwise(c: &mut Criterion) {
    const N: usize = 64 * 1024;
    let cx: Vec<Complex32> = batch_for(N / 64); // 1024-long helper reuse
    let cbase: Vec<Complex32> = (0..N).map(|i| cx[i % cx.len()]).collect();
    let fbase: Vec<f32> = cbase.iter().map(|z| z.re).collect();

    let mut g = c.benchmark_group("pointwise_simd");
    g.sample_size(10)
        .warm_up_time(Duration::from_millis(100))
        .measurement_time(Duration::from_millis(500));
    let mut dst_c = cbase.clone();
    g.bench_function("simd_cmul", |b| {
        b.iter(|| {
            dst_c.copy_from_slice(&cbase);
            znn_simd::mul_assign_c(black_box(&mut dst_c), &cbase);
            black_box(&dst_c);
        })
    });
    g.bench_function("scalar_cmul", |b| {
        b.iter(|| {
            dst_c.copy_from_slice(&cbase);
            znn_simd::scalar::mul_assign_c(black_box(&mut dst_c), &cbase);
            black_box(&dst_c);
        })
    });
    g.bench_function("simd_conj_mul", |b| {
        b.iter(|| {
            dst_c.copy_from_slice(&cbase);
            znn_simd::conj_mul_assign_c(black_box(&mut dst_c), &cbase);
            black_box(&dst_c);
        })
    });
    g.bench_function("scalar_conj_mul", |b| {
        b.iter(|| {
            dst_c.copy_from_slice(&cbase);
            znn_simd::scalar::conj_mul_assign_c(black_box(&mut dst_c), &cbase);
            black_box(&dst_c);
        })
    });
    let mut dst_f = fbase.clone();
    g.bench_function("simd_fma_row", |b| {
        b.iter(|| {
            dst_f.copy_from_slice(&fbase);
            znn_simd::fma_acc_f(black_box(&mut dst_f), 0.5, &fbase);
            black_box(&dst_f);
        })
    });
    g.bench_function("scalar_fma_row", |b| {
        b.iter(|| {
            dst_f.copy_from_slice(&fbase);
            znn_simd::scalar::fma_acc_f(black_box(&mut dst_f), 0.5, &fbase);
            black_box(&dst_f);
        })
    });
    g.finish();
}

criterion_group!(benches, bench_kernels, bench_simd_kernels, bench_pointwise);
criterion_main!(benches);
