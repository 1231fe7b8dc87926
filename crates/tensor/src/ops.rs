//! Elementwise kernels used on hot paths.
//!
//! The slice loops dispatch through `znn-simd`: AVX2+FMA bodies where
//! the host supports them, portable scalar twins everywhere else —
//! bitwise-identical per element either way (see `znn-simd`'s crate
//! docs for the exactness policy). They are the `ADD-TO(v, v')`
//! primitive of the paper's wait-free summation (Algorithm 4) and the
//! pointwise stages of FFT convolution.
//!
//! [`axpy`] and [`sub_scaled`] *fuse* their multiply-add (one rounding,
//! [`f32::mul_add`] semantics) on every backend — fusing is part of
//! their contract, not a vector-path quirk.

use crate::{Complex32, Spectrum, Tensor3, Vec3};

/// `dst += src`, elementwise. Panics on shape mismatch.
pub fn add_assign(dst: &mut Tensor3<f32>, src: &Tensor3<f32>) {
    assert_eq!(dst.shape(), src.shape(), "add_assign shape mismatch");
    znn_simd::add_assign_f(dst.as_mut_slice(), src.as_slice());
}

/// `dst += src` for complex tensors (frequency-domain accumulation).
pub fn add_assign_c(dst: &mut Tensor3<Complex32>, src: &Tensor3<Complex32>) {
    assert_eq!(dst.shape(), src.shape(), "add_assign_c shape mismatch");
    znn_simd::add_assign_c(dst.as_mut_slice(), src.as_slice());
}

/// Elementwise complex product `a * b` into a fresh tensor.
pub fn mul_c(a: &Tensor3<Complex32>, b: &Tensor3<Complex32>) -> Tensor3<Complex32> {
    assert_eq!(a.shape(), b.shape(), "mul_c shape mismatch");
    let mut out = a.clone();
    znn_simd::mul_assign_c(out.as_mut_slice(), b.as_slice());
    out
}

/// `dst *= s` for real tensors.
pub fn scale(dst: &mut Tensor3<f32>, s: f32) {
    znn_simd::scale_f(dst.as_mut_slice(), s);
}

/// `dst *= s` for complex tensors (inverse-FFT normalization).
pub fn scale_c(dst: &mut Tensor3<Complex32>, s: f32) {
    // a complex × real scale is lanewise on the interleaved floats
    znn_simd::scale_f(znn_simd::complex_as_floats_mut(dst.as_mut_slice()), s);
}

/// `dst = fma(dst, a, b)`, the fused axpy used by SGD with momentum
/// (single rounding per element, every backend).
pub fn axpy(dst: &mut Tensor3<f32>, a: f32, b: &Tensor3<f32>) {
    assert_eq!(dst.shape(), b.shape(), "axpy shape mismatch");
    znn_simd::axpy_f(dst.as_mut_slice(), a, b.as_slice());
}

/// `dst = fma(-eta, g, dst)`, the SGD parameter update of Algorithm 3
/// line 2 (fused, single rounding per element).
pub fn sub_scaled(dst: &mut Tensor3<f32>, eta: f32, g: &Tensor3<f32>) {
    assert_eq!(dst.shape(), g.shape(), "sub_scaled shape mismatch");
    znn_simd::sub_scaled_f(dst.as_mut_slice(), eta, g.as_slice());
}

/// Elementwise product into `dst` — the transfer-function Jacobian
/// multiplies the backward image by the derivative image (§III-A).
pub fn mul_assign(dst: &mut Tensor3<f32>, src: &Tensor3<f32>) {
    assert_eq!(dst.shape(), src.shape(), "mul_assign shape mismatch");
    znn_simd::mul_assign_f(dst.as_mut_slice(), src.as_slice());
}

/// `dst += src` for half-spectra (frequency-domain accumulation on the
/// packed representation). Panics when the *logical* transform shapes
/// differ — equal half shapes are not enough, see [`Spectrum`].
pub fn add_assign_s(dst: &mut Spectrum, src: &Spectrum) {
    assert_eq!(
        dst.full_shape(),
        src.full_shape(),
        "add_assign_s logical shape mismatch"
    );
    add_assign_c(dst.half_mut(), src.half());
}

/// Elementwise half-spectrum product `a ∘ b` — the frequency-domain
/// convolution kernel of §IV on the packed representation.
pub fn mul_s(a: &Spectrum, b: &Spectrum) -> Spectrum {
    assert_eq!(
        a.full_shape(),
        b.full_shape(),
        "mul_s logical shape mismatch"
    );
    let mut out = a.clone();
    znn_simd::mul_assign_c(out.half_mut().as_mut_slice(), b.half().as_slice());
    out
}

/// Widens a real tensor to complex (imaginary part zero) for the FFT.
pub fn to_complex(t: &Tensor3<f32>) -> Tensor3<Complex32> {
    Tensor3::from_vec(
        t.shape(),
        t.as_slice()
            .iter()
            .map(|&v| Complex32::new(v, 0.0))
            .collect(),
    )
}

/// Takes the real part of a complex tensor (after an inverse FFT).
pub fn to_real(t: &Tensor3<Complex32>) -> Tensor3<f32> {
    Tensor3::from_vec(t.shape(), t.as_slice().iter().map(|c| c.re).collect())
}

/// Dot product of two equally-shaped real tensors, accumulated in `f64`
/// for stability (used by loss functions and gradient checks).
pub fn dot(a: &Tensor3<f32>, b: &Tensor3<f32>) -> f64 {
    assert_eq!(a.shape(), b.shape(), "dot shape mismatch");
    a.as_slice()
        .iter()
        .zip(b.as_slice())
        .map(|(&x, &y)| x as f64 * y as f64)
        .sum()
}

/// Fills a tensor with values from an iterator-like closure over linear
/// indices (handy for deterministic pseudo-random test data).
pub fn fill_with(t: &mut Tensor3<f32>, mut f: impl FnMut(usize) -> f32) {
    for (i, v) in t.as_mut_slice().iter_mut().enumerate() {
        *v = f(i);
    }
}

/// A tiny deterministic value generator for tests and examples: a
/// splitmix64-derived float in `[-1, 1)`. Not cryptographic; stable
/// across platforms.
pub fn splitmix_f32(seed: u64, i: u64) -> f32 {
    let mut z = seed.wrapping_add(i.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    // take 24 mantissa bits -> [0,1), then shift to [-1,1)
    ((z >> 40) as f32 / (1u64 << 24) as f32) * 2.0 - 1.0
}

/// A deterministic random-ish tensor for tests, benches and examples.
pub fn random(shape: impl Into<Vec3>, seed: u64) -> Tensor3<f32> {
    let shape = shape.into();
    let mut t = Tensor3::zeros(shape);
    fill_with(&mut t, |i| splitmix_f32(seed, i as u64));
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_assign_adds() {
        let mut a = Tensor3::filled(Vec3::cube(2), 1.0f32);
        let b = Tensor3::filled(Vec3::cube(2), 2.5f32);
        add_assign(&mut a, &b);
        assert!(a.as_slice().iter().all(|&v| v == 3.5));
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn add_assign_rejects_mismatch() {
        let mut a = Tensor3::<f32>::zeros(Vec3::cube(2));
        let b = Tensor3::<f32>::zeros(Vec3::cube(3));
        add_assign(&mut a, &b);
    }

    #[test]
    fn complex_round_trip() {
        let t = random(Vec3::new(2, 3, 4), 7);
        let c = to_complex(&t);
        assert_eq!(to_real(&c), t);
    }

    #[test]
    fn sub_scaled_is_sgd_step() {
        let mut w = Tensor3::filled(Vec3::one(), 1.0f32);
        let g = Tensor3::filled(Vec3::one(), 4.0f32);
        sub_scaled(&mut w, 0.25, &g);
        assert_eq!(w.at((0, 0, 0)), 0.0);
    }

    #[test]
    fn axpy_matches_definition() {
        let mut v = Tensor3::filled(Vec3::one(), 2.0f32);
        let b = Tensor3::filled(Vec3::one(), 3.0f32);
        axpy(&mut v, 0.5, &b);
        assert_eq!(v.at((0, 0, 0)), 4.0);
    }

    #[test]
    fn dot_matches_manual() {
        let a = Tensor3::from_vec(Vec3::new(1, 1, 3), vec![1.0, 2.0, 3.0]);
        let b = Tensor3::from_vec(Vec3::new(1, 1, 3), vec![4.0, 5.0, 6.0]);
        assert_eq!(dot(&a, &b), 32.0);
    }

    #[test]
    fn splitmix_is_deterministic_and_bounded() {
        for i in 0..1000 {
            let v = splitmix_f32(42, i);
            assert!((-1.0..1.0).contains(&v));
            assert_eq!(v, splitmix_f32(42, i));
        }
        // different seeds give different streams
        assert_ne!(random(Vec3::cube(3), 1), random(Vec3::cube(3), 2));
    }
}
