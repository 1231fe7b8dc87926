//! Differential pins for the FFT kernels underneath the engine.
//!
//! `znn_fft::line` routes every 5-smooth length through
//! the iterative mixed-radix Stockham kernels (radix-4/3/5 stages plus
//! a trailing radix-2) and lengths with prime factors > 5 through the
//! recursive mixed-radix fallback. These tests pin both against the
//! O(n²) naive DFT across the lengths the engine actually plans
//! (5-smooth, with primes exercising the fallback's naive base case),
//! pin the two kernel families against each other on the lengths both
//! can plan, and pin the multi-threaded engine against the
//! single-threaded one bit-for-bit.

use proptest::prelude::*;
use num_complex::Complex;
use znn_fft::line::{Direction, LinePlan};
use znn_fft::FftEngine;
use znn_tensor::{ops, Vec3};

/// O(n²) reference DFT with f64 accumulation.
fn naive_dft(x: &[Complex<f32>], sign: f64) -> Vec<Complex<f32>> {
    let n = x.len();
    (0..n)
        .map(|k| {
            let mut acc = Complex::new(0.0f64, 0.0f64);
            for (t, &v) in x.iter().enumerate() {
                let ang = sign * 2.0 * std::f64::consts::PI * (k * t % n) as f64 / n as f64;
                acc += Complex::new(v.re as f64, v.im as f64) * Complex::new(ang.cos(), ang.sin());
            }
            Complex::new(acc.re as f32, acc.im as f32)
        })
        .collect()
}

/// A deterministic pseudo-random complex signal in [-0.5, 0.5]².
fn signal(n: usize, seed: u64) -> Vec<Complex<f32>> {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).max(1);
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f32 / (1u64 << 53) as f32 - 0.5
    };
    (0..n).map(|_| Complex::new(next(), next())).collect()
}

fn check_both_directions(n: usize, seed: u64) {
    let x = signal(n, seed);
    for (dir, sign) in [(Direction::Forward, -1.0), (Direction::Inverse, 1.0)] {
        let mut got = x.clone();
        LinePlan::new(n, dir).process(&mut got);
        let want = naive_dft(&x, sign);
        // error grows ~ sqrt(n) for the fast kernels; the naive f32 DFT
        // baseline dominates, so scale the bound with n
        let tol = 1e-5 * (n as f32) + 1e-4;
        for (k, (a, b)) in got.iter().zip(&want).enumerate() {
            assert!(
                (*a - *b).norm() < tol,
                "len {n} {dir:?} bin {k}: {a:?} vs {b:?}"
            );
        }
    }
}

/// Every 5-smooth length up to 512 — all of them take the iterative
/// mixed-radix Stockham kernels.
#[test]
fn dense_sweep_of_smooth_lengths_matches_naive_dft() {
    let mut lengths = Vec::new();
    for n in 2..=512usize {
        let mut m = n;
        for p in [2, 3, 5] {
            while m % p == 0 {
                m /= p;
            }
        }
        if m == 1 {
            lengths.push(n);
        }
    }
    assert!(lengths.len() > 40, "sweep too sparse: {}", lengths.len());
    for &n in &lengths {
        check_both_directions(n, 0xD1CE ^ n as u64);
    }
}

/// Primes hit the fallback's naive base case directly.
#[test]
fn prime_lengths_hit_the_fallback() {
    for n in [2usize, 3, 5, 7, 11, 13, 17, 31, 61, 97, 101] {
        check_both_directions(n, 0xBEEF ^ n as u64);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random 2^a·3^b·5^c lengths (pure powers of two, pure powers of
    /// 3 and 5, and every mixed factorization — all planned onto the
    /// iterative Stockham path), random signals, vs the naive DFT.
    #[test]
    fn iterative_kernels_match_naive_dft(
        (a, b, c) in (0u32..10, 0u32..5, 0u32..4).prop_filter(
            "length in [2, 600]",
            |&(a, b, c)| {
                let n = 2usize.pow(a) * 3usize.pow(b) * 5usize.pow(c);
                (2..=600).contains(&n)
            },
        ),
        seed in any::<u64>(),
    ) {
        let n = 2usize.pow(a) * 3usize.pow(b) * 5usize.pow(c);
        check_both_directions(n, seed);
    }

    /// Random 5-smooth lengths: the iterative Stockham plan and the
    /// recursive fallback plan must agree — the differential pin that
    /// keeps the radix-3/5 stages honest against the long-standing
    /// reference implementation.
    #[test]
    fn iterative_and_recursive_kernels_agree_on_5_smooth_lengths(
        (a, b, c) in (0u32..10, 0u32..5, 0u32..4).prop_filter(
            "length in [2, 600]",
            |&(a, b, c)| {
                let n = 2usize.pow(a) * 3usize.pow(b) * 5usize.pow(c);
                (2..=600).contains(&n)
            },
        ),
        seed in any::<u64>(),
    ) {
        let n = 2usize.pow(a) * 3usize.pow(b) * 5usize.pow(c);
            let x = signal(n, seed);
        for dir in [Direction::Forward, Direction::Inverse] {
            let mut iter = x.clone();
            LinePlan::new(n, dir).process(&mut iter);
            let mut rec = x.clone();
            LinePlan::recursive(n, dir).process(&mut rec);
            let tol = 1e-5 * (n as f32) + 1e-4;
            for (k, (u, v)) in iter.iter().zip(&rec).enumerate() {
                prop_assert!(
                    (*u - *v).norm() < tol,
                    "len {} {:?} bin {}: {:?} vs {:?}", n, dir, k, u, v
                );
            }
        }
    }

    /// Forward-then-inverse is the identity times n, for both kernel
    /// families.
    #[test]
    fn round_trip_is_unnormalized_identity(
        (a, b) in (1u32..9, 0u32..4).prop_filter(
            "length in [2, 768]",
            |&(a, b)| (2..=768).contains(&(2usize.pow(a) * 3usize.pow(b))),
        ),
        seed in any::<u64>(),
    ) {
        let n = 2usize.pow(a) * 3usize.pow(b);
            let x = signal(n, seed);
        let mut buf = x.clone();
        LinePlan::new(n, Direction::Forward).process(&mut buf);
        LinePlan::new(n, Direction::Inverse).process(&mut buf);
        for (a, b) in buf.iter().zip(&x) {
            let scaled = Complex::new(a.re / n as f32, a.im / n as f32);
            prop_assert!((scaled - *b).norm() < 1e-4, "len {}", n);
        }
    }

    /// The multi-threaded engine must match the single-threaded one
    /// bit-for-bit on every shape — the determinism contract of the
    /// parallel line transforms (scoped workers run even on one core).
    #[test]
    fn threaded_transforms_are_deterministic(
        shape in (3usize..34, 3usize..34, 1usize..34).prop_filter(
            "past the parallel threshold on at least one stage",
            |&(x, y, z)| x * y * z >= 12_000,
        ),
        threads in 2usize..7,
        seed in any::<u64>(),
    ) {
        let m = Vec3::new(shape.0, shape.1, shape.2);
        let serial = FftEngine::with_threads(1);
        let parallel = FftEngine::with_threads(threads);
        let img = ops::random(m, seed);
        let s_spec = serial.rfft3(&img);
        let p_spec = parallel.rfft3(&img);
        let fwd_drift = s_spec
            .half()
            .as_slice()
            .iter()
            .zip(p_spec.half().as_slice())
            .map(|(a, b)| (a - b).norm())
            .fold(0.0f32, f32::max);
        prop_assert!(fwd_drift == 0.0, "forward drift {} on {}", fwd_drift, m);
        let s_back = serial.irfft3(s_spec);
        let p_back = parallel.irfft3(p_spec);
        prop_assert!(
            s_back.max_abs_diff(&p_back) == 0.0,
            "inverse drift on {}",
            m
        );
        // and the round trip still lands on the input
        prop_assert!(p_back.max_abs_diff(&img) < 1e-4);
    }
}

/// Shared-pool determinism: engines fanning out over one persistent
/// pool at 1/2/4 workers must agree bit-for-bit with the serial
/// engine — the same contract the scoped-thread era pinned, re-run
/// through the pool path (`FftEngine::with_pool`).
#[test]
fn shared_pool_transforms_are_deterministic_at_1_2_4_workers() {
    let pool = std::sync::Arc::new(znn_sched::ThreadPool::with_workers(2));
    let serial = FftEngine::with_threads(1);
    // 48³, 24·30·40 and 120·90·1 are 5-smooth non-powers-of-two: their
    // lines run the new radix-3/5 Stockham stages, which must be as
    // chunk-independent as the radix-4/2 ones
    for shape in [
        Vec3::cube(32),
        Vec3::new(16, 32, 64),
        Vec3::new(128, 130, 1),
        Vec3::cube(48),
        Vec3::new(24, 30, 40),
        Vec3::new(120, 90, 1),
    ] {
        let img = ops::random(shape, 0xB00);
        let want_spec = serial.rfft3(&img);
        let want_back = serial.irfft3(serial.rfft3(&img));
        for workers in [1usize, 2, 4] {
            let engine = FftEngine::with_pool(workers, std::sync::Arc::clone(&pool));
            let spec = engine.rfft3(&img);
            let drift = spec
                .half()
                .as_slice()
                .iter()
                .zip(want_spec.half().as_slice())
                .map(|(a, b)| (a - b).norm())
                .fold(0.0f32, f32::max);
            assert!(drift == 0.0, "forward drift at {workers} workers on {shape}");
            let back = engine.irfft3(spec);
            assert!(
                back.max_abs_diff(&want_back) == 0.0,
                "inverse drift at {workers} workers on {shape}"
            );
        }
    }
}

/// Pool reuse: two engines sharing one pool run interleaved transforms
/// from concurrent threads without corrupting each other's scratch —
/// every result must still be bit-for-bit the serial one.
#[test]
fn two_engines_on_one_pool_do_not_corrupt_each_others_scratch() {
    let pool = std::sync::Arc::new(znn_sched::ThreadPool::with_workers(2));
    let a = std::sync::Arc::new(FftEngine::with_pool(4, std::sync::Arc::clone(&pool)));
    let b = std::sync::Arc::new(FftEngine::with_pool(3, std::sync::Arc::clone(&pool)));
    let serial = FftEngine::with_threads(1);
    // distinct shapes per engine so scratch sizes differ (a stale or
    // shared buffer would corrupt the longer lines)
    let shape_a = Vec3::cube(32);
    let shape_b = Vec3::new(16, 40, 48);
    let img_a = ops::random(shape_a, 0xA);
    let img_b = ops::random(shape_b, 0xB);
    let want_a = serial.rfft3(&img_a);
    let want_b = serial.rfft3(&img_b);
    let drift = |got: &znn_tensor::Spectrum, want: &znn_tensor::Spectrum| {
        got.half()
            .as_slice()
            .iter()
            .zip(want.half().as_slice())
            .map(|(x, y)| (x - y).norm())
            .fold(0.0f32, f32::max)
    };
    let handles: Vec<_> = (0..4)
        .map(|i| {
            let (engine, img, want) = if i % 2 == 0 {
                (std::sync::Arc::clone(&a), img_a.clone(), want_a.clone())
            } else {
                (std::sync::Arc::clone(&b), img_b.clone(), want_b.clone())
            };
            std::thread::spawn(move || {
                for _ in 0..8 {
                    let got = engine.rfft3(&img);
                    assert!(
                        got.half()
                            .as_slice()
                            .iter()
                            .zip(want.half().as_slice())
                            .all(|(x, y)| x == y),
                        "interleaved transform drifted"
                    );
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    // and sequentially interleaved use stays exact too
    for _ in 0..4 {
        assert!(drift(&a.rfft3(&img_a), &want_a) == 0.0);
        assert!(drift(&b.rfft3(&img_b), &want_b) == 0.0);
    }
}
