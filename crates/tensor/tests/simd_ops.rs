//! Differential coverage for the `znn-simd`-routed elementwise layer.
//!
//! Two kinds of pins:
//!
//! * **bitwise** — ops whose vector body preserves the scalar op order
//!   exactly (`add_assign`, `mul_assign`, `scale`, the complex
//!   products) must equal a naive reference loop bit for bit on every
//!   shape, including the vector-width tails;
//! * **error-bounded** — the fused ops (`axpy`, `sub_scaled`) are
//!   pinned against `f32::mul_add` bitwise (fusing is their contract)
//!   and against an `f64` reference within one final rounding. A naive
//!   "within 1 ulp of the unfused form" bound would be wrong: under
//!   cancellation the fused residual and the unfused result can sit
//!   many ulps apart *relative to the tiny result*, while both stay
//!   within half an ulp of the inputs' magnitudes absolutely.
//!
//! Shapes are drawn so total lengths sweep through every residue of
//! the 8-lane width (tails of 0..8 floats, 0..4 complexes).

use proptest::prelude::*;
use znn_tensor::{ops, Complex32, Spectrum, Tensor3, Vec3};

fn random_c(shape: Vec3, seed: u64) -> Tensor3<Complex32> {
    let mut v = Vec::with_capacity(shape.len());
    for i in 0..shape.len() as u64 {
        v.push(Complex32::new(
            ops::splitmix_f32(seed, 2 * i),
            ops::splitmix_f32(seed, 2 * i + 1),
        ));
    }
    Tensor3::from_vec(shape, v)
}

fn random_spectrum(full: Vec3, seed: u64) -> Spectrum {
    Spectrum::new(random_c(Spectrum::half_shape(full), seed), full)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn real_ops_match_naive_reference_bitwise(
        x in 1usize..5, y in 1usize..5, z in 1usize..11, seed in 0u64..1000,
    ) {
        let shape = Vec3::new(x, y, z);
        let a = ops::random(shape, seed);
        let b = ops::random(shape, seed ^ 0xDEAD);

        let mut got = a.clone();
        ops::add_assign(&mut got, &b);
        for (i, (&av, &bv)) in a.as_slice().iter().zip(b.as_slice()).enumerate() {
            prop_assert_eq!(got.as_slice()[i].to_bits(), (av + bv).to_bits());
        }

        let mut got = a.clone();
        ops::mul_assign(&mut got, &b);
        for (i, (&av, &bv)) in a.as_slice().iter().zip(b.as_slice()).enumerate() {
            prop_assert_eq!(got.as_slice()[i].to_bits(), (av * bv).to_bits());
        }

        let s = ops::splitmix_f32(seed, 7);
        let mut got = a.clone();
        ops::scale(&mut got, s);
        for (i, &av) in a.as_slice().iter().enumerate() {
            prop_assert_eq!(got.as_slice()[i].to_bits(), (av * s).to_bits());
        }
    }

    #[test]
    fn fused_ops_are_mul_add_bitwise_and_within_1_ulp_of_unfused(
        x in 1usize..5, y in 1usize..5, z in 1usize..11, seed in 0u64..1000,
    ) {
        let shape = Vec3::new(x, y, z);
        let a = ops::random(shape, seed);
        let b = ops::random(shape, seed ^ 0xBEEF);
        let c = ops::splitmix_f32(seed, 3);

        // |fma(x, y, z) − exact| ≤ ½ ulp(result); with all inputs in
        // [−1, 1) that is bounded by ε·(|z| + |x·y|) absolutely
        let bound = |p: f32, q: f32| f64::from(f32::EPSILON) * f64::from(p.abs() + q.abs());

        let mut got = a.clone();
        ops::axpy(&mut got, c, &b);
        for (i, (&av, &bv)) in a.as_slice().iter().zip(b.as_slice()).enumerate() {
            let fused = av.mul_add(c, bv);
            prop_assert_eq!(got.as_slice()[i].to_bits(), fused.to_bits());
            let exact = f64::from(av) * f64::from(c) + f64::from(bv);
            prop_assert!((f64::from(fused) - exact).abs() <= bound(av * c, bv));
        }

        let mut got = a.clone();
        ops::sub_scaled(&mut got, c, &b);
        for (i, (&av, &bv)) in a.as_slice().iter().zip(b.as_slice()).enumerate() {
            let fused = (-c).mul_add(bv, av);
            prop_assert_eq!(got.as_slice()[i].to_bits(), fused.to_bits());
            let exact = f64::from(av) - f64::from(c) * f64::from(bv);
            prop_assert!((f64::from(fused) - exact).abs() <= bound(c * bv, av));
        }
    }

    #[test]
    fn complex_ops_match_naive_reference_bitwise(
        x in 1usize..5, y in 1usize..5, z in 1usize..11, seed in 0u64..1000,
    ) {
        let shape = Vec3::new(x, y, z);
        let a = random_c(shape, seed);
        let b = random_c(shape, seed ^ 0xC0FFEE);

        let got = ops::mul_c(&a, &b);
        for (i, (&av, &bv)) in a.as_slice().iter().zip(b.as_slice()).enumerate() {
            let want = av * bv;
            prop_assert_eq!(got.as_slice()[i].re.to_bits(), want.re.to_bits());
            prop_assert_eq!(got.as_slice()[i].im.to_bits(), want.im.to_bits());
        }
    }

    /// The §IV frequency-product on the packed half-spectrum
    /// representation: `mul_s` must equal the per-bin `num_complex`
    /// product bitwise (and so trivially within any ulp bound).
    #[test]
    fn mul_s_is_bitwise_exact_per_bin(
        x in 1usize..6, y in 1usize..6, z in 1usize..9, seed in 0u64..1000,
    ) {
        let full = Vec3::new(x, y, z);
        let a = random_spectrum(full, seed);
        let b = random_spectrum(full, seed ^ 0xFEED);
        let got = ops::mul_s(&a, &b);
        for (i, (&av, &bv)) in a
            .half()
            .as_slice()
            .iter()
            .zip(b.half().as_slice())
            .enumerate()
        {
            let want = av * bv;
            prop_assert_eq!(got.half().as_slice()[i].re.to_bits(), want.re.to_bits());
            prop_assert_eq!(got.half().as_slice()[i].im.to_bits(), want.im.to_bits());
        }
    }
}
