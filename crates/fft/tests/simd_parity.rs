//! SIMD-vs-scalar parity at the 3D engine level: the default engine
//! (batched AVX2 Stockham lines and `znn-simd`'s packed-stage unpack,
//! repack and extract kernels where detected) must be *bitwise* equal
//! to `with_scalar_kernels()` on every path — forward r2c (whose
//! strided stages are complex line transforms), inverse, and the
//! pruned lattices of kernel spectra, crops and kernel gradients,
//! threaded or not. On hosts without AVX2 the two engines run the same
//! code and the pins hold trivially.

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

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn spectrum_bits(s: &znn_tensor::Spectrum) -> Vec<u32> {
    s.half().as_slice().iter().flat_map(|c| [c.re.to_bits(), c.im.to_bits()]).collect()
}

#[test]
fn packed_stage_lattices_match_scalar_kernels_bitwise() {
    // the packed stage's three lattice paths (dilated forward, cropped
    // dense inverse at an offset, flipped strided inverse) at odd
    // half-lengths hn = 15, 25 and at hn = 16, 24, multiples of the
    // 4-bin vector; the flat shape packs along y
    let simd = FftEngine::new();
    let scalar = FftEngine::with_scalar_kernels();
    for m in [
        Vec3::new(6, 10, 30),
        Vec3::new(5, 7, 50),
        Vec3::new(6, 10, 32),
        Vec3::new(4, 8, 48),
        Vec3::new(9, 30, 1),
    ] {
        let pa = znn_tensor::Spectrum::packed_axis(m);
        let flat = m[2] == 1;
        let k = if flat { Vec3::new(3, 4, 1) } else { Vec3::new(2, 3, 4) };
        let sparsity = if flat { Vec3::new(2, 3, 1) } else { Vec3::new(2, 3, 5) };
        let w = ops::random(k, 41);
        let a = spectra::kernel_spectrum(&simd, &w, sparsity, m);
        let b = spectra::kernel_spectrum(&scalar, &w, sparsity, m);
        assert_eq!(spectrum_bits(&a), spectrum_bits(&b), "dilated kernel spectrum at {m}");

        let img = ops::random(m, 42);
        let spec = simd.rfft3(&img);
        // a crop that starts inside the packed axis
        let mut at = Vec3::new(1, 2, if flat { 0 } else { 2 });
        at[pa] = 3;
        let crop = m - at - Vec3::new(1, 1, if flat { 0 } else { 1 });
        let a = simd.inverse_real(spec.clone(), at, crop);
        let b = scalar.inverse_real(spec.clone(), at, crop);
        assert!(at[pa] > 0);
        assert_eq!(bits(a.as_slice()), bits(b.as_slice()), "cropped inverse at {m}");

        for s in [sparsity, Vec3::one()] {
            let a = spectra::kernel_gradient_from_corr(&simd, spec.clone(), k, s);
            let b = spectra::kernel_gradient_from_corr(&scalar, spec.clone(), k, s);
            assert_eq!(bits(a.as_slice()), bits(b.as_slice()), "kernel gradient s={s} at {m}");
        }
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

/// Every transform path through the strided passes of `engine`, as bit
/// patterns: full `rfft3`/`irfft3`, a pruned `forward_padded`, a
/// cropped `inverse_real`, a kernel spectrum dilated on every axis it
/// fits (step > 1 on the outer axis) and the flipped, dilated kernel
/// gradient.
fn strided_pass_bits(engine: &FftEngine, m: Vec3, seed: u64) -> Vec<(String, Vec<u32>)> {
    let img = ops::random(m, seed);
    let spec = engine.rfft3(&img);
    let mut out = vec![("rfft3".to_string(), spectrum_bits(&spec))];
    out.push((
        "irfft3".into(),
        bits(engine.irfft3(spec.clone()).as_slice()),
    ));
    let small = Vec3::new(m[0] - m[0] / 3, m[1] - m[1] / 4, m[2] - m[2] / 5);
    let padded = engine.forward_padded(&ops::random(small, seed + 1), m);
    out.push((format!("forward_padded {small}"), spectrum_bits(&padded)));
    let at = Vec3::new(m[0] / 4, m[1] / 3, m[2] / 2);
    let crop = m - at - Vec3::new(m[0] / 5, m[1] / 6, 0);
    let cropped = engine.inverse_real(padded, at, crop);
    out.push((
        format!("inverse_real {at} {crop}"),
        bits(cropped.as_slice()),
    ));
    let k = Vec3::new(3.min(m[0]), 3.min(m[1]), 3.min(m[2]));
    let step = |a: usize, s: usize| if (k[a] - 1) * s < m[a] { s } else { 1 };
    let s = Vec3::new(step(0, 3), step(1, 2), step(2, 2));
    let w = ops::random(k, seed + 2);
    let ks = spectra::kernel_spectrum(engine, &w, s, m);
    out.push((format!("kernel_spectrum {k} s={s}"), spectrum_bits(&ks)));
    let g = spectra::kernel_gradient_from_corr(engine, spec, k, s);
    out.push((format!("kernel_gradient {k} s={s}"), bits(g.as_slice())));
    out
}

#[test]
fn lanes_across_the_packed_axis_match_scalar_kernels_bitwise() {
    // the strided passes run 8 lanes across adjacent packed-axis lines,
    // each row of h = n/2+1 lines in groups of 8 with the last h mod 8
    // as one masked group; the scalar engine gathers the same lines. h
    // takes every residue mod 8 (h < 8 is one masked group per row),
    // on volumes (lanes across z) and flat images (lanes across y),
    // plus the training shapes 60³ (h = 31) and 50³ (h = 26); the
    // non-packed extents mix radices, one is not 5-smooth (recursive
    // lines, gathered by both engines) and the odd packed extent 9
    // takes the full-length pack
    let simd = FftEngine::new();
    let scalar = FftEngine::with_scalar_kernels();
    let mut shapes: Vec<Vec3> = (2..=16)
        .step_by(2)
        .map(|mz| Vec3::new(12, 10, mz))
        .collect();
    shapes.extend((2..=16).step_by(2).map(|my| Vec3::new(20, my, 1)));
    shapes.extend([
        Vec3::cube(60),
        Vec3::cube(50),
        Vec3::new(8, 7, 22),
        Vec3::new(6, 16, 9),
        Vec3::new(16, 62, 1),
    ]);
    let residues: std::collections::BTreeSet<usize> = shapes
        .iter()
        .map(|&m| znn_tensor::Spectrum::half_shape(m)[znn_tensor::Spectrum::packed_axis(m)] % 8)
        .collect();
    assert_eq!(residues.len(), 8, "every h mod 8");
    for (i, &m) in shapes.iter().enumerate() {
        let seed = 500 + i as u64;
        let want = strided_pass_bits(&scalar, m, seed);
        for (got, want) in strided_pass_bits(&simd, m, seed).iter().zip(&want) {
            assert_eq!(got.0, want.0);
            assert!(got.1 == want.1, "{} drift at {m}", got.0);
        }
    }
    // 3 concurrent callers on one pooled engine, each on its own shapes
    let pooled = FftEngine::new().with_buffer_pools(znn_alloc::PoolSet::new());
    std::thread::scope(|sc| {
        for c in 0..3 {
            let (pooled, scalar, shapes) = (&pooled, &scalar, &shapes);
            sc.spawn(move || {
                for (i, &m) in shapes.iter().enumerate().skip(c).step_by(3) {
                    let seed = 900 + i as u64;
                    let want = strided_pass_bits(scalar, m, seed);
                    for _ in 0..2 {
                        let got = strided_pass_bits(pooled, m, seed);
                        for (got, want) in got.iter().zip(&want) {
                            assert!(got.1 == want.1, "concurrent {} drift at {m}", got.0);
                        }
                    }
                }
            });
        }
    });
}
