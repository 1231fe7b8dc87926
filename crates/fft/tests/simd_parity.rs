//! SIMD-vs-scalar parity at the 3D engine level: the default engine
//! (batched AVX2 Stockham lines where detected) must be *bitwise*
//! equal to `with_scalar_kernels()` on every path — forward r2c (whose
//! strided stages are complex line transforms) and inverse, threaded
//! or not. On hosts without AVX2 the two engines run the same code and
//! the pins hold trivially.

use proptest::prelude::*;
use znn_fft::{spectra, FftEngine};
use znn_tensor::{ops, Vec3};

fn max_cdiff(a: &znn_tensor::CImage, b: &znn_tensor::CImage) -> f32 {
    a.as_slice()
        .iter()
        .zip(b.as_slice())
        .map(|(x, y)| (x - y).norm())
        .fold(0.0, f32::max)
}

#[test]
fn default_engine_matches_scalar_kernels_bitwise() {
    let simd = FftEngine::new();
    let scalar = FftEngine::with_scalar_kernels();
    for shape in [
        Vec3::cube(32),          // 2^k: radix-4 + trailing-2 stages
        Vec3::new(24, 30, 20),   // mixed radices incl. 3 and 5
        Vec3::new(16, 32, 64),   // anisotropic
        Vec3::new(128, 130, 1),  // flat, non-5-smooth y (recursive)
        Vec3::new(4, 3, 5),      // odd packed axis (fallback pack)
        Vec3::cube(9),           // radix-3 only
    ] {
        let img = ops::random(shape, 1213);
        let a = simd.rfft3(&img);
        let b = scalar.rfft3(&img);
        assert!(
            max_cdiff(a.half(), b.half()) == 0.0,
            "forward drift on {shape}"
        );
        let back_a = simd.irfft3(a);
        let back_b = scalar.irfft3(b);
        assert!(
            back_a.max_abs_diff(&back_b) == 0.0,
            "inverse drift on {shape}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The memoized-update kernel `corr_spectrum` (x ∘ conj(g)) must
    /// equal the per-bin `num_complex` form bitwise on every transform
    /// shape — the AVX2 conjugate-multiply preserves the scalar op
    /// order exactly, tails included.
    #[test]
    fn corr_spectrum_is_bitwise_exact_per_bin(
        x in 1usize..6, y in 1usize..6, z in 1usize..9, seed in 0u64..1000,
    ) {
        let engine = FftEngine::new();
        let shape = Vec3::new(x, y, z);
        let xs = engine.rfft3(&ops::random(shape, seed));
        let gs = engine.rfft3(&ops::random(shape, seed ^ 0xACE));
        let got = spectra::corr_spectrum(&xs, &gs);
        for (i, (&xv, &gv)) in xs
            .half()
            .as_slice()
            .iter()
            .zip(gs.half().as_slice())
            .enumerate()
        {
            let want = xv * gv.conj();
            prop_assert_eq!(got.half().as_slice()[i].re.to_bits(), want.re.to_bits());
            prop_assert_eq!(got.half().as_slice()[i].im.to_bits(), want.im.to_bits());
        }
    }
}

#[test]
fn threaded_simd_engine_matches_scalar_kernels_bitwise() {
    // the SIMD engine shared by concurrent callers: each transform's
    // 8-line groups run in its caller's own scratch, and neither the
    // sharing nor the grouping may change a bit
    let simd = FftEngine::new();
    let scalar = FftEngine::with_scalar_kernels();
    std::thread::scope(|s| {
        for shape in [Vec3::cube(32), Vec3::new(16, 32, 64)] {
            let (simd, scalar) = (&simd, &scalar);
            s.spawn(move || {
                let img = ops::random(shape, 77);
                let a = simd.rfft3(&img);
                let b = scalar.rfft3(&img);
                assert!(
                    max_cdiff(a.half(), b.half()) == 0.0,
                    "threaded forward drift on {shape}"
                );
                let back_a = simd.irfft3(a);
                let back_b = scalar.irfft3(b);
                assert!(
                    back_a.max_abs_diff(&back_b) == 0.0,
                    "threaded inverse drift on {shape}"
                );
            });
        }
    });
}
