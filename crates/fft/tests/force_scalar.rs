//! `ZNN_FORCE_SCALAR` at the engine level: with the override set
//! before first use, every plan the engine builds is scalar, and the
//! whole r2c/c2r pipeline still round-trips and stays bitwise equal to
//! the explicitly scalar-pinned engine.
//!
//! One `#[test]` on purpose: the override is read once per process,
//! so this file owns its test binary's process.

use znn_fft::FftEngine;
use znn_tensor::{ops, Vec3};

#[test]
fn forced_scalar_engine_round_trips_and_matches_scalar_plans() {
    std::env::set_var("ZNN_FORCE_SCALAR", "1");
    assert!(znn_simd::forced_scalar());
    assert_eq!(znn_simd::isa(), znn_simd::Isa::Scalar);

    let engine = FftEngine::new();
    let pinned = FftEngine::with_scalar_kernels();
    for shape in [Vec3::cube(32), Vec3::new(24, 30, 20)] {
        let img = ops::random(shape, 2024);
        let a = engine.rfft3(&img);
        let b = pinned.rfft3(&img);
        let drift = a
            .half()
            .as_slice()
            .iter()
            .zip(b.half().as_slice())
            .map(|(x, y)| (x - y).norm())
            .fold(0.0, f32::max);
        assert!(drift == 0.0, "forced-scalar forward drift on {shape}");
        let back = engine.irfft3(a);
        assert!(
            back.max_abs_diff(&img) < 1e-5,
            "forced-scalar round trip failed on {shape}"
        );
    }
}
