//! Differential pins for the FFT kernels underneath the engine.
//!
//! `znn_fft::line` routes every 5-smooth length through
//! the iterative mixed-radix Stockham kernels (radix-4/3/5 stages plus
//! a trailing radix-2) and lengths with prime factors > 5 through the
//! recursive mixed-radix fallback. These tests pin both against the
//! O(n²) naive DFT across the lengths the engine actually plans
//! (5-smooth, with primes exercising the fallback's naive base case),
//! pin the two kernel families against each other on the lengths both
//! can plan, and pin concurrent callers of one engine against a
//! serial engine bit-for-bit.

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

    /// Concurrent callers on one shared engine must each get the bits
    /// of a serial engine: a transform runs on its caller's thread in
    /// its own scratch set, so no caller can see another's buffers.
    /// Each caller's image has a different extent, so the scratch sets
    /// grow to different sizes.
    #[test]
    fn threaded_transforms_are_deterministic(
        shape in (3usize..34, 3usize..34, 1usize..34),
        threads in 2usize..7,
        seed in any::<u64>(),
    ) {
        let serial = FftEngine::new();
        let shared = FftEngine::new();
        let imgs: Vec<_> = (0..threads)
            .map(|i| ops::random(Vec3::new(shape.0 + i, shape.1, shape.2), seed ^ i as u64))
            .collect();
        let want: Vec<_> = imgs
            .iter()
            .map(|img| {
                let spec = serial.rfft3(img);
                let half = spec.half().as_slice().to_vec();
                (half, serial.irfft3(spec))
            })
            .collect();
        let got: Vec<_> = std::thread::scope(|s| {
            let handles: Vec<_> = imgs
                .iter()
                .map(|img| {
                    let shared = &shared;
                    s.spawn(move || {
                        let spec = shared.rfft3(img);
                        let half = spec.half().as_slice().to_vec();
                        (half, shared.irfft3(spec))
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for (i, ((g_half, g_back), (w_half, w_back))) in got.iter().zip(&want).enumerate() {
            prop_assert!(g_half == w_half, "forward drift for caller {}", i);
            prop_assert!(g_back.max_abs_diff(w_back) == 0.0, "inverse drift for caller {}", i);
            // and the round trip still lands on the input
            prop_assert!(g_back.max_abs_diff(&imgs[i]) < 1e-4);
        }
    }
}

