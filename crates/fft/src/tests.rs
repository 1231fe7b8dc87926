//! Unit tests of the line plans ([`crate::line`]): both kernel families
//! against the naive DFT and each other, and the batched SIMD lines
//! against the scalar kernels bit for bit.

use crate::line::{is_5_smooth, Direction, LinePlan};
use num_complex::Complex;

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

fn test_signal(n: usize) -> Vec<Complex<f32>> {
    (0..n)
        .map(|i| {
            let a = ((i * 37 + 11) % 101) as f32 / 101.0 - 0.5;
            let b = ((i * 53 + 29) % 97) as f32 / 97.0 - 0.5;
            Complex::new(a, b)
        })
        .collect()
}

#[test]
fn matches_naive_dft_on_many_lengths() {
    for n in [
        2usize, 3, 4, 5, 6, 7, 8, 9, 10, 12, 13, 15, 16, 17, 20, 24, 30, 32, 36, 60,
    ] {
        let x = test_signal(n);
        let mut buf = x.clone();
        LinePlan::new(n, Direction::Forward).process(&mut buf);
        let want = naive_dft(&x, -1.0);
        for (a, b) in buf.iter().zip(&want) {
            assert!((*a - *b).norm() < 1e-3 * n as f32, "len {n}");
        }
    }
}

#[test]
fn stockham_matches_naive_dft_on_all_powers_of_two() {
    for k in 1..=10 {
        let n = 1usize << k;
        let x = test_signal(n);
        let mut fwd = x.clone();
        LinePlan::new(n, Direction::Forward).process(&mut fwd);
        let want = naive_dft(&x, -1.0);
        for (a, b) in fwd.iter().zip(&want) {
            assert!((*a - *b).norm() < 1e-4 * n as f32, "fwd len {n}");
        }
        let mut inv = x.clone();
        LinePlan::new(n, Direction::Inverse).process(&mut inv);
        let want = naive_dft(&x, 1.0);
        for (a, b) in inv.iter().zip(&want) {
            assert!((*a - *b).norm() < 1e-4 * n as f32, "inv len {n}");
        }
    }
}

#[test]
fn stockham_matches_naive_dft_on_every_5_smooth_length() {
    // the mixed-radix tentpole: every 5-smooth length ≤ 600 now
    // takes the iterative path — single radices (2^k, 3^k, 5^k) and
    // every mixed factorization
    let mut covered = 0;
    for n in 2..=600usize {
        let mut m = n;
        for p in [2usize, 3, 5] {
            while m % p == 0 {
                m /= p;
            }
        }
        if m != 1 {
            continue;
        }
        covered += 1;
        let x = test_signal(n);
        let mut fwd = x.clone();
        LinePlan::new(n, Direction::Forward).process(&mut fwd);
        let want = naive_dft(&x, -1.0);
        for (a, b) in fwd.iter().zip(&want) {
            assert!((*a - *b).norm() < 1e-4 * n as f32, "fwd len {n}");
        }
        let mut inv = x.clone();
        LinePlan::new(n, Direction::Inverse).process(&mut inv);
        let want = naive_dft(&x, 1.0);
        for (a, b) in inv.iter().zip(&want) {
            assert!((*a - *b).norm() < 1e-4 * n as f32, "inv len {n}");
        }
    }
    assert!(covered > 50, "5-smooth sweep too sparse: {covered}");
}

#[test]
fn stockham_agrees_with_recursive_kernels() {
    // differential pin: the two algorithms must agree wherever both
    // apply (the fallback is the long-standing reference) — now
    // including non-power-of-two 5-smooth lengths
    for n in [
        2usize, 4, 8, 16, 64, 128, 512, 6, 12, 45, 48, 60, 120, 360, 375,
    ] {
        for dir in [Direction::Forward, Direction::Inverse] {
            let x = test_signal(n);
            let mut a = x.clone();
            LinePlan::new(n, dir).process(&mut a);
            let mut b = x;
            LinePlan::recursive(n, dir).process(&mut b);
            for (u, v) in a.iter().zip(&b) {
                assert!((*u - *v).norm() < 1e-4 * n as f32, "len {n} {dir:?}");
            }
        }
    }
}

#[test]
fn inverse_is_unnormalized_inverse() {
    for n in [4usize, 6, 9, 11, 16, 25, 64, 75, 256, 270] {
        let x = test_signal(n);
        let mut buf = x.clone();
        LinePlan::new(n, Direction::Forward).process(&mut buf);
        LinePlan::new(n, Direction::Inverse).process(&mut buf);
        for (a, b) in buf.iter().zip(&x) {
            let scaled = Complex::new(a.re / n as f32, a.im / n as f32);
            assert!((scaled - *b).norm() < 1e-4, "len {n}");
        }
    }
}

#[test]
fn simd_batched_lines_match_scalar_bitwise_on_every_5_smooth_length() {
    // the SIMD tentpole pin: for every 5-smooth length, a buffer of
    // 11 lines (8 through the batched AVX2 stage kernels + 3
    // through the scalar remainder path) must equal the
    // scalar-pinned plan *bitwise* — the vector butterflies perform
    // the same IEEE ops in the same order per lane. On hosts
    // without AVX2 both plans are scalar and this degenerates to a
    // determinism check.
    let mut covered = 0;
    for n in 4..=360usize {
        if !is_5_smooth(n) {
            continue;
        }
        covered += 1;
        for dir in [Direction::Forward, Direction::Inverse] {
            let lines = 11usize;
            let mut signal = Vec::with_capacity(lines * n);
            for l in 0..lines {
                let line = test_signal(n);
                signal.extend(
                    line.iter()
                        .map(|v| Complex::new(v.re + l as f32 * 0.01, v.im - l as f32 * 0.02)),
                );
            }
            let plan = LinePlan::new(n, dir);
            let scalar_plan = LinePlan::scalar(n, dir);
            let mut simd = signal.clone();
            let mut scratch = vec![Complex::new(0.0, 0.0); plan.scratch_len()];
            plan.process_with_scratch(&mut simd, &mut scratch);
            let mut scalar = signal;
            let mut sscratch = vec![Complex::new(0.0, 0.0); scalar_plan.scratch_len()];
            for chunk in scalar.chunks_mut(n) {
                scalar_plan.process_with_scratch(chunk, &mut sscratch);
            }
            assert_eq!(simd, scalar, "len {n} {dir:?}");
        }
    }
    assert!(covered > 40, "5-smooth sweep too sparse: {covered}");
}

#[test]
fn simd_batch_boundary_is_unobservable() {
    // processing 20 lines at once (2 full batches + 4 remainder)
    // must equal processing them in any split — each line's result
    // is independent of where the batch boundaries land
    for n in [24usize, 60, 128] {
        let plan = LinePlan::new(n, Direction::Forward);
        let lines = 20usize;
        let signal: Vec<Complex<f32>> = (0..lines * n)
            .map(|i| {
                let a = ((i * 37 + 11) % 101) as f32 / 101.0 - 0.5;
                let b = ((i * 53 + 29) % 97) as f32 / 97.0 - 0.5;
                Complex::new(a, b)
            })
            .collect();
        let mut scratch = vec![Complex::new(0.0, 0.0); plan.scratch_len()];
        let mut whole = signal.clone();
        plan.process_with_scratch(&mut whole, &mut scratch);
        for split in [n, 8 * n, 12 * n] {
            let mut parts = signal.clone();
            let (lo, hi) = parts.split_at_mut(split);
            plan.process_with_scratch(lo, &mut scratch);
            plan.process_with_scratch(hi, &mut scratch);
            assert_eq!(parts, whole, "len {n} split at {split}");
        }
    }
}

#[test]
fn processes_every_chunk() {
    // both algorithms must honor the batched-chunk contract (6 is
    // 5-smooth → Stockham, 7 is prime → recursive fallback)
    for n in [4usize, 6, 7] {
        let plan = LinePlan::new(n, Direction::Forward);
        let line = test_signal(n);
        let mut batched: Vec<Complex<f32>> = [line.clone(), line.clone()].concat();
        let mut scratch = vec![Complex::new(0.0, 0.0); plan.scratch_len()];
        plan.process_with_scratch(&mut batched, &mut scratch);
        let mut single = line;
        plan.process(&mut single);
        assert_eq!(&batched[..n], &single[..]);
        assert_eq!(&batched[n..], &single[..]);
    }
}
