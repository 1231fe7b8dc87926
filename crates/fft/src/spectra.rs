//! Spectrum-domain identities that make FFT memoization pay (Table II).
//!
//! The memoized backward and update passes of §IV reuse transforms
//! computed earlier instead of taking new ones:
//!
//! * the **backward** convolution needs the spectrum of the *reflected*
//!   kernel. For a real kernel `w` with support `[0, K)` zero-padded to
//!   `m`, `pad(flip(w)) = shift_{K−1}(reverse(pad(w)))`, so its DFT is
//!   `conj(W[f]) · e^{−2πi·f·(K−1)/m}` per axis — a pointwise
//!   derivation from the memoized forward spectrum `W`
//!   ([`flip_spectrum`]);
//! * the **update** pass needs the valid cross-correlation of the
//!   forward image with the backward image, which is
//!   `ifft(conj(X) ∘ G)` restricted to the kernel lattice
//!   ([`corr_spectrum`]), reusing both memoized spectra.
//!
//! All identities here operate on half-spectra ([`Spectrum`]): every
//! input is the transform of a *real* image, so the full spectra are
//! Hermitian and products/linear combinations of them stay Hermitian —
//! the stored `⌊m_z/2⌋+1` z-bins determine the rest. The pointwise
//! loops therefore touch half the bins the c2c forms did.

use crate::engine::{FftEngine, Lattice};
use znn_tensor::{Complex32, Image, Spectrum, Vec3};
#[cfg(test)]
use znn_tensor::Tensor3;

/// Derives the half-spectrum of the padded, *reflected* kernel from the
/// half-spectrum `w_spec` of the padded kernel, given the kernel's
/// original support `k` (before padding). Pointwise — no FFT.
pub fn flip_spectrum(w_spec: &Spectrum, k: Vec3) -> Spectrum {
    let m = w_spec.full_shape();
    let two_pi = 2.0 * std::f64::consts::PI;
    // clone-then-rotate in place: a pooled input spectrum yields a
    // pooled output (tensor clones re-lease from their source). The
    // phase factor separates per axis, so the trig runs once per *axis
    // bin* — three tables of O(m) unit rotations, angles in f64 — and
    // the O(m³) bin sweep is pure complex multiplies. Stored bins are
    // the true frequencies 0..=⌊m/2⌋ along the packed axis, so the
    // phase formula is unchanged; it just runs over half the lattice.
    let mut out = w_spec.clone();
    let hs = out.half().shape();
    let axis_table = |a: usize| -> Vec<Complex32> {
        (0..hs[a])
            .map(|f| {
                if m[a] > 1 {
                    let ang = -two_pi * (f * (k[a] - 1)) as f64 / m[a] as f64;
                    Complex32::new(ang.cos() as f32, ang.sin() as f32)
                } else {
                    Complex32::new(1.0, 0.0)
                }
            })
            .collect()
    };
    let (rx, ry, rz) = (axis_table(0), axis_table(1), axis_table(2));
    for (row, wrow) in out
        .half_mut()
        .as_mut_slice()
        .chunks_exact_mut(hs[2])
        .enumerate()
    {
        let rxy = rx[row / hs[1]] * ry[row % hs[1]];
        for (w, r) in wrow.iter_mut().zip(&rz) {
            *w = w.conj() * (rxy * *r);
        }
    }
    out
}

/// Pointwise `x_spec ∘ conj(g_spec)` — the half-spectrum whose inverse
/// transform holds the cross-correlation `c[l] = Σ_o g[o]·x[o+l]`. With
/// the usual padding discipline (both images padded to a transform at
/// least as large as the forward image), lags `0..K` hold the linear
/// correlation, i.e. the dilated-kernel gradient of §III-B (reflected;
/// see [`kernel_gradient_from_corr`]).
pub fn corr_spectrum(x_spec: &Spectrum, g_spec: &Spectrum) -> Spectrum {
    assert_eq!(
        x_spec.full_shape(),
        g_spec.full_shape(),
        "spectrum shape mismatch"
    );
    let mut out = x_spec.clone();
    znn_simd::conj_mul_assign_c(out.half_mut().as_mut_slice(), g_spec.half().as_slice());
    out
}

/// The half-spectrum at transform shape `m` of kernel `w` dilated by
/// `sparsity` onto the skip lattice and zero-padded — equal to
/// `rfft3(pad(dilate(w, sparsity), m))`, but read straight from the
/// undilated kernel: neither the dilated nor the padded copy is built,
/// and only the lines that hold kernel taps are transformed (a 5³
/// kernel at 60³ packs 25 of 3600 lines). Panics if the dilated kernel
/// does not fit `m`.
pub fn kernel_spectrum(engine: &FftEngine, w: &Image, sparsity: Vec3, m: Vec3) -> Spectrum {
    engine.forward_lattice(w, sparsity, m)
}

/// Extracts the §III-B kernel gradient from the inverse transform of a
/// correlation spectrum.
///
/// Correlation lag `t` holds `Σ_o g[o]·x[o + t]`, while the true-conv
/// kernel gradient is `∂L/∂w[t] = Σ_o g[o]·x[o + s·(k−1−t)]` — lag
/// `s·(k−1−t)`. So the gradient is the *reflection* of the lattice
/// sample of the first `k_dilated` lags. The inverse is asked for
/// exactly those `k` lags, in reflected order, so it inverts only the
/// lines that hold them and writes the gradient directly.
pub fn kernel_gradient_from_corr(
    engine: &FftEngine,
    corr: Spectrum,
    k: Vec3,
    sparsity: Vec3,
) -> Image {
    engine.inverse_lattice(
        corr,
        Lattice {
            at: Vec3::zero(),
            count: k,
            step: sparsity,
            flip: true,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::size::good_shape;
    use znn_tensor::{ops, pad};

    fn max_sdiff(a: &Spectrum, b: &Spectrum) -> f32 {
        assert_eq!(a.full_shape(), b.full_shape());
        a.half()
            .as_slice()
            .iter()
            .zip(b.half().as_slice())
            .map(|(x, y)| (x - y).norm())
            .fold(0.0, f32::max)
    }

    #[test]
    fn flip_spectrum_matches_fft_of_flipped_kernel() {
        let engine = FftEngine::new();
        for (k, m) in [
            (Vec3::cube(3), Vec3::cube(8)),
            (Vec3::new(2, 3, 1), Vec3::new(6, 9, 1)),
            (Vec3::flat(5, 5), Vec3::flat(12, 10)),
            (Vec3::cube(2), Vec3::new(4, 6, 5)), // odd z extent
        ] {
            let w = ops::random(k, 81);
            let w_spec = engine.forward_padded(&w, m);
            let derived = flip_spectrum(&w_spec, k);
            let direct = engine.forward_padded(&pad::flip(&w), m);
            assert!(
                max_sdiff(&derived, &direct) < 1e-3,
                "k={k} m={m}: {}",
                max_sdiff(&derived, &direct)
            );
        }
    }

    #[test]
    fn corr_spectrum_recovers_kernel_gradient() {
        let engine = FftEngine::new();
        let n = Vec3::cube(7);
        let k = Vec3::cube(3);
        let s = Vec3::one();
        let x = ops::random(n, 82);
        let g = ops::random(n.valid_conv(k).unwrap(), 83);
        let m = good_shape(n);
        let x_spec = engine.forward_padded(&x, m);
        let g_spec = engine.forward_padded(&g, m);
        let corr = corr_spectrum(&x_spec, &g_spec);
        let got = kernel_gradient_from_corr(&engine, corr, k, s);
        // reference: §III-B gradient dw[t] = Σ g[o] x[o + (k-1-t)]
        let want = {
            let mut acc = Tensor3::<f32>::zeros(k);
            for t in k.iter() {
                let mut v = 0.0f64;
                for o in g.shape().iter() {
                    v += g.at(o) as f64 * x.at(o + (k - Vec3::one() - t)) as f64;
                }
                acc[t] = v as f32;
            }
            acc
        };
        assert!(
            got.max_abs_diff(&want) < 1e-3,
            "diff {}",
            got.max_abs_diff(&want)
        );
        // and it must agree with the direct-method kernel gradient used
        // elsewhere (differential check across implementations)
        let direct = znn_direct_ref(&x, &g, k);
        assert!(got.max_abs_diff(&direct) < 1e-3);
    }

    #[test]
    fn sparse_corr_gradient_lands_on_lattice() {
        let engine = FftEngine::new();
        let n = Vec3::cube(9);
        let k = Vec3::cube(2);
        let s = Vec3::cube(3);
        let x = ops::random(n, 84);
        let g = ops::random(n.valid_conv(k.dilated(s)).unwrap(), 85);
        let m = good_shape(n);
        let corr = corr_spectrum(
            &engine.forward_padded(&x, m),
            &engine.forward_padded(&g, m),
        );
        let got = kernel_gradient_from_corr(&engine, corr, k, s);
        assert_eq!(got.shape(), k);
        // reference at lattice points: dw[t] = Σ g[o] x[o + s(k-1-t)]
        for t in k.iter() {
            let mut v = 0.0f64;
            for o in g.shape().iter() {
                v += g.at(o) as f64 * x.at(o + (k - Vec3::one() - t) * s) as f64;
            }
            assert!((got[t] - v as f32).abs() < 1e-3, "at {t}");
        }
    }

    /// Direct-method §III-B kernel gradient used as a cross-check.
    fn znn_direct_ref(x: &Image, g: &Image, k: Vec3) -> Image {
        Tensor3::from_fn(k, |t| {
            let mut v = 0.0f64;
            for o in g.shape().iter() {
                v += g.at(o) as f64 * x.at(o + (k - Vec3::one() - t)) as f64;
            }
            v as f32
        })
    }

    #[test]
    fn backward_conv_via_flip_spectrum_matches_direct() {
        // dx = conv_full(g, flip(w)) computed as ifft(G ∘ V) with
        // V = flip_spectrum(W)
        let engine = FftEngine::new();
        let n = Vec3::cube(8);
        let k = Vec3::cube(3);
        let w = ops::random(k, 86);
        let g = ops::random(n.valid_conv(k).unwrap(), 87);
        let m = good_shape(n);
        let w_spec = engine.forward_padded(&w, m);
        let v = flip_spectrum(&w_spec, k);
        let g_spec = engine.forward_padded(&g, m);
        let prod = ops::mul_s(&g_spec, &v);
        // full conv of g (size n-k+1) with flip(w) (size k) has size n;
        // but the flipped kernel's spectrum encodes support [0,K) so the
        // product is the linear conv at offset 0
        let got = engine.inverse_real(prod, Vec3::zero(), n);
        let want = znn_fft_testref_conv_full(&g, &pad::flip(&w));
        assert!(
            got.max_abs_diff(&want) < 1e-3,
            "diff {}",
            got.max_abs_diff(&want)
        );
    }

    /// Naive full convolution for the test above.
    fn znn_fft_testref_conv_full(img: &Image, ker: &Image) -> Image {
        let k = ker.shape();
        let padded = pad::pad(
            img,
            img.shape() + (k - Vec3::one()) * 2,
            k - Vec3::one(),
        );
        let out_shape = img.shape().full_conv(k);
        Tensor3::from_fn(out_shape, |o| {
            let mut acc = 0.0f64;
            for t in k.iter() {
                let at = Vec3::new(
                    o[0] + k[0] - 1 - t[0],
                    o[1] + k[1] - 1 - t[1],
                    o[2] + k[2] - 1 - t[2],
                );
                acc += padded.at(at) as f64 * ker.at(t) as f64;
            }
            acc as f32
        })
    }
}
