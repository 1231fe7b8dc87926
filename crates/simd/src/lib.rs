//! Runtime-dispatched SIMD microkernels for the pointwise layer.
//!
//! The paper's per-core throughput assumes wide-vector arithmetic
//! (its many-core results lean on Xeon-Phi-class SIMD); this crate is
//! the workspace's single place where vector instructions live. Every
//! kernel comes in at least two bodies:
//!
//! * an **AVX2+FMA** body (`x86_64` only), selected at runtime via
//!   `is_x86_feature_detected!`,
//! * an **AVX-512F** body for the shuffle-bound complex kernels
//!   (selected when `avx512f` is detected on top of AVX2+FMA; the
//!   streaming real kernels reuse the AVX2 bodies there), and
//! * a portable **scalar twin** ([`scalar`]) that compiles everywhere
//!   and is the reference every vector body is pinned against.
//!
//! # Exactness policy
//!
//! Vector bodies are written to be **bitwise identical** to their
//! scalar twins per element:
//!
//! * add/sub/mul-only kernels (complex multiply, butterfly algebra)
//!   perform the *same IEEE operations in the same order* as the twin
//!   — the only re-association ever used is `x + y = y + x`, which is
//!   exact;
//! * FMA kernels ([`axpy_f`], [`sub_scaled_f`], [`fma_acc_f`]) fuse in
//!   **both** bodies: the twin uses [`f32::mul_add`], which is the
//!   same correctly-rounded operation as the hardware `vfmadd`.
//!
//! Because results never depend on which body ran, on lane position,
//! or on tail handling, all of the workspace's bit-determinism
//! guarantees (thread-count invariance, pooled-vs-raw parity,
//! batched-vs-single line transforms) hold *per code path and across
//! code paths*. The differential tests in this crate and in
//! `znn-tensor`/`znn-fft`/`rustfft` assert the bitwise pin; callers
//! that re-associate on their own (none today) must document an ulp
//! bound instead.
//!
//! # Dispatch
//!
//! [`isa`] detects once (first call) and caches. Setting the
//! environment variable `ZNN_FORCE_SCALAR` to anything but `0`/empty
//! *before first use* forces the scalar twins process-wide — CI runs
//! the whole test suite a second time this way so the fallback can
//! never rot. Benchmarks that need both paths in one process use
//! plan-level switches instead (`FftPlanner::plan_fft_scalar`,
//! `FftEngine::with_scalar_kernels`) plus the public [`scalar`]
//! module, not the env override.
//!
//! ```
//! use num_complex::Complex;
//! let mut d = vec![Complex::new(1.0f32, 2.0); 37];
//! let s = vec![Complex::new(0.5f32, -1.0); 37];
//! let mut d2 = d.clone();
//! znn_simd::mul_assign_c(&mut d, &s);          // dispatched
//! znn_simd::scalar::mul_assign_c(&mut d2, &s); // twin
//! assert_eq!(d, d2);                           // bitwise, always
//! ```

use num_complex::Complex;
use std::sync::OnceLock;

pub mod scalar;

#[cfg(target_arch = "x86_64")]
mod avx2;
#[cfg(target_arch = "x86_64")]
mod avx512;
#[cfg(target_arch = "x86_64")]
pub mod x8;

/// The instruction set the dispatched kernels run on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Isa {
    /// AVX-512F complex kernels over the AVX2+FMA base (x86_64,
    /// detected at runtime).
    Avx512F,
    /// AVX2 + FMA vector bodies (x86_64, detected at runtime).
    Avx2Fma,
    /// The portable scalar twins.
    Scalar,
}

/// `(isa, forced)` — detected once, cached for the process lifetime.
static CONFIG: OnceLock<(Isa, bool)> = OnceLock::new();

/// Pure detection policy: what [`isa`] would return given the
/// `ZNN_FORCE_SCALAR` decision. Exposed so tests can pin the policy
/// without mutating process-global state.
pub fn detect(force_scalar: bool) -> Isa {
    if force_scalar {
        return Isa::Scalar;
    }
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2")
            && std::arch::is_x86_feature_detected!("fma")
        {
            if std::arch::is_x86_feature_detected!("avx512f") {
                return Isa::Avx512F;
            }
            return Isa::Avx2Fma;
        }
    }
    Isa::Scalar
}

fn config() -> (Isa, bool) {
    *CONFIG.get_or_init(|| {
        let forced = std::env::var_os("ZNN_FORCE_SCALAR")
            .is_some_and(|v| !v.is_empty() && v != "0");
        (detect(forced), forced)
    })
}

/// The instruction set every dispatched kernel in this crate uses.
/// Detected on first call (hardware probe + `ZNN_FORCE_SCALAR`), then
/// fixed for the process lifetime.
pub fn isa() -> Isa {
    config().0
}

/// `true` when `ZNN_FORCE_SCALAR` pinned the process to the scalar
/// twins regardless of hardware.
pub fn forced_scalar() -> bool {
    config().1
}

/// Stable name of the active ISA for logs and bench JSON.
pub fn isa_name() -> &'static str {
    match isa() {
        Isa::Avx512F => "avx512f",
        Isa::Avx2Fma => "avx2_fma",
        Isa::Scalar => "scalar",
    }
}

/// Views a complex slice as its interleaved `re, im` float storage.
pub fn complex_as_floats(s: &[Complex<f32>]) -> &[f32] {
    // SAFETY: Complex<f32> is #[repr(C)] { re: f32, im: f32 } — size 8,
    // align 4 — so the same allocation is exactly 2·len valid f32s.
    unsafe { std::slice::from_raw_parts(s.as_ptr().cast::<f32>(), s.len() * 2) }
}

/// Mutable variant of [`complex_as_floats`].
pub fn complex_as_floats_mut(s: &mut [Complex<f32>]) -> &mut [f32] {
    // SAFETY: as in `complex_as_floats`.
    unsafe { std::slice::from_raw_parts_mut(s.as_mut_ptr().cast::<f32>(), s.len() * 2) }
}

macro_rules! dispatched {
    ($name:ident, ($($arg:ident: $ty:ty),*), $doc:expr) => {
        #[doc = $doc]
        ///
        /// Dispatched: the widest detected vector body (AVX-512F or
        /// AVX2+FMA), else the scalar twin in [`scalar`]. All bodies
        /// produce bitwise-identical results (see the crate docs for
        /// the exactness policy).
        pub fn $name($($arg: $ty),*) {
            #[cfg(target_arch = "x86_64")]
            {
                match isa() {
                    // SAFETY: the matching features were detected at
                    // runtime (Avx512F implies AVX2+FMA were too).
                    Isa::Avx512F => {
                        unsafe { avx512::$name($($arg),*) };
                        return;
                    }
                    Isa::Avx2Fma => {
                        unsafe { avx2::$name($($arg),*) };
                        return;
                    }
                    Isa::Scalar => {}
                }
            }
            scalar::$name($($arg),*);
        }
    };
}

dispatched!(
    add_assign_f,
    (dst: &mut [f32], src: &[f32]),
    "`dst[i] += src[i]` (panics on length mismatch)."
);
dispatched!(
    mul_assign_f,
    (dst: &mut [f32], src: &[f32]),
    "`dst[i] *= src[i]` (panics on length mismatch)."
);
dispatched!(
    scale_f,
    (dst: &mut [f32], s: f32),
    "`dst[i] *= s`."
);
dispatched!(
    axpy_f,
    (dst: &mut [f32], a: f32, src: &[f32]),
    "`dst[i] = fma(dst[i], a, src[i])` — the momentum-SGD axpy, fused \
     in both bodies."
);
dispatched!(
    sub_scaled_f,
    (dst: &mut [f32], eta: f32, src: &[f32]),
    "`dst[i] = fma(-eta, src[i], dst[i])` — the SGD parameter step, \
     fused in both bodies."
);
dispatched!(
    fma_acc_f,
    (dst: &mut [f32], w: f32, src: &[f32]),
    "`dst[i] = fma(w, src[i], dst[i])` — the direct convolver's \
     contiguous tap accumulation, fused in both bodies."
);
dispatched!(
    add_assign_c,
    (dst: &mut [Complex<f32>], src: &[Complex<f32>]),
    "`dst[i] += src[i]` for complex slices (frequency-domain \
     accumulation)."
);
dispatched!(
    mul_assign_c,
    (dst: &mut [Complex<f32>], src: &[Complex<f32>]),
    "`dst[i] *= src[i]` — the spectrum pointwise product of §IV."
);
dispatched!(
    conj_mul_assign_c,
    (dst: &mut [Complex<f32>], g: &[Complex<f32>]),
    "`dst[i] *= conj(g[i])` — the correlation-spectrum kernel."
);
dispatched!(
    bias_add_f,
    (dst: &mut [f32], bias: f32),
    "`dst[i] += bias` — the `Linear` transfer forward."
);
dispatched!(
    bias_relu_f,
    (dst: &mut [f32], bias: f32),
    "`dst[i] = relu(dst[i] + bias)` where `relu(t)` is `t` for \
     `t > 0`, else `0.0`."
);
dispatched!(
    bias_leaky_relu_f,
    (dst: &mut [f32], bias: f32, a: f32),
    "`dst[i] = t > 0 ? t : a·t` for `t = dst[i] + bias`."
);
dispatched!(
    relu_deriv_mul_f,
    (dst: &mut [f32], y: &[f32]),
    "`dst[i] *= (y[i] > 0 ? 1.0 : 0.0)` — the ReLU Jacobian applied \
     to a backward image."
);
dispatched!(
    leaky_relu_deriv_mul_f,
    (dst: &mut [f32], y: &[f32], a: f32),
    "`dst[i] *= (y[i] > 0 ? 1.0 : a)`."
);
dispatched!(
    logistic_deriv_mul_f,
    (dst: &mut [f32], y: &[f32]),
    "`dst[i] *= y[i]·(1 − y[i])` — the logistic Jacobian from the \
     forward output."
);
dispatched!(
    tanh_deriv_mul_f,
    (dst: &mut [f32], y: &[f32]),
    "`dst[i] *= 1 − y[i]²` — the tanh Jacobian from the forward \
     output."
);

#[cfg(test)]
mod tests {
    use super::*;

    fn rand_f(seed: u64, n: usize) -> Vec<f32> {
        (0..n)
            .map(|i| {
                let mut z = seed.wrapping_add((i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z ^= z >> 31;
                ((z >> 40) as f32 / (1u64 << 24) as f32) * 2.0 - 1.0
            })
            .collect()
    }

    fn rand_c(seed: u64, n: usize) -> Vec<Complex<f32>> {
        let re = rand_f(seed, n);
        let im = rand_f(seed ^ 0xABCD, n);
        re.into_iter().zip(im).map(|(r, i)| Complex::new(r, i)).collect()
    }

    /// Lengths that exercise the empty, all-tail, one-vector and
    /// vector+tail shapes of every kernel.
    const LENS: [usize; 7] = [0, 1, 3, 4, 8, 33, 67];

    #[test]
    fn detect_policy() {
        assert_eq!(detect(true), Isa::Scalar);
        // un-forced detection never panics and is stable
        assert_eq!(detect(false), detect(false));
        assert_eq!(isa(), isa());
    }

    #[test]
    fn real_kernels_match_scalar_twins_bitwise() {
        for &n in &LENS {
            let src = rand_f(1, n);
            for (name, disp, twin) in [
                (
                    "add_assign_f",
                    add_assign_f as fn(&mut [f32], &[f32]),
                    scalar::add_assign_f as fn(&mut [f32], &[f32]),
                ),
                ("mul_assign_f", mul_assign_f, scalar::mul_assign_f),
            ] {
                let mut a = rand_f(2, n);
                let mut b = a.clone();
                disp(&mut a, &src);
                twin(&mut b, &src);
                assert_eq!(a, b, "{name} n={n}");
            }
            let mut a = rand_f(3, n);
            let mut b = a.clone();
            scale_f(&mut a, 1.37);
            scalar::scale_f(&mut b, 1.37);
            assert_eq!(a, b, "scale_f n={n}");
            for (name, disp, twin) in [
                (
                    "axpy_f",
                    axpy_f as fn(&mut [f32], f32, &[f32]),
                    scalar::axpy_f as fn(&mut [f32], f32, &[f32]),
                ),
                ("sub_scaled_f", sub_scaled_f, scalar::sub_scaled_f),
                ("fma_acc_f", fma_acc_f, scalar::fma_acc_f),
            ] {
                let mut a = rand_f(4, n);
                let mut b = a.clone();
                disp(&mut a, 0.731, &src);
                twin(&mut b, 0.731, &src);
                assert_eq!(a, b, "{name} n={n}");
            }
        }
    }

    #[test]
    fn complex_kernels_match_scalar_twins_bitwise() {
        for &n in &LENS {
            let g = rand_c(6, n);
            for (name, disp, twin) in [
                (
                    "add_assign_c",
                    add_assign_c as fn(&mut [Complex<f32>], &[Complex<f32>]),
                    scalar::add_assign_c as fn(&mut [Complex<f32>], &[Complex<f32>]),
                ),
                ("mul_assign_c", mul_assign_c, scalar::mul_assign_c),
                ("conj_mul_assign_c", conj_mul_assign_c, scalar::conj_mul_assign_c),
            ] {
                let mut a = rand_c(7, n);
                let mut b = a.clone();
                disp(&mut a, &g);
                twin(&mut b, &g);
                assert_eq!(a, b, "{name} n={n}");
            }
        }
    }

    #[test]
    fn transfer_kernels_match_scalar_twins_bitwise() {
        for &n in &LENS {
            let y = rand_f(9, n);
            for (name, disp, twin) in [
                (
                    "bias_add_f",
                    bias_add_f as fn(&mut [f32], f32),
                    scalar::bias_add_f as fn(&mut [f32], f32),
                ),
                ("bias_relu_f", bias_relu_f, scalar::bias_relu_f),
            ] {
                let mut a = rand_f(10, n);
                let mut b = a.clone();
                disp(&mut a, 0.13);
                twin(&mut b, 0.13);
                assert_eq!(a, b, "{name} n={n}");
            }
            let mut a = rand_f(11, n);
            let mut b = a.clone();
            bias_leaky_relu_f(&mut a, 0.13, 0.01);
            scalar::bias_leaky_relu_f(&mut b, 0.13, 0.01);
            assert_eq!(a, b, "bias_leaky_relu_f n={n}");
            for (name, disp, twin) in [
                (
                    "relu_deriv_mul_f",
                    relu_deriv_mul_f as fn(&mut [f32], &[f32]),
                    scalar::relu_deriv_mul_f as fn(&mut [f32], &[f32]),
                ),
                ("logistic_deriv_mul_f", logistic_deriv_mul_f, scalar::logistic_deriv_mul_f),
                ("tanh_deriv_mul_f", tanh_deriv_mul_f, scalar::tanh_deriv_mul_f),
            ] {
                let mut a = rand_f(12, n);
                let mut b = a.clone();
                disp(&mut a, &y);
                twin(&mut b, &y);
                assert_eq!(a, b, "{name} n={n}");
            }
            let mut a = rand_f(13, n);
            let mut b = a.clone();
            leaky_relu_deriv_mul_f(&mut a, &y, 0.01);
            scalar::leaky_relu_deriv_mul_f(&mut b, &y, 0.01);
            assert_eq!(a, b, "leaky_relu_deriv_mul_f n={n}");
        }
    }

    #[test]
    fn float_view_round_trips() {
        let mut v = rand_c(14, 5);
        let orig = v.clone();
        let f = complex_as_floats_mut(&mut v);
        assert_eq!(f.len(), 10);
        assert_eq!(f[2], orig[1].re);
        assert_eq!(f[3], orig[1].im);
        f[0] += 1.0;
        assert_eq!(v[0].re, orig[0].re + 1.0);
        assert_eq!(complex_as_floats(&v).len(), 10);
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn transpose8x8_is_the_transpose() {
        if isa() == Isa::Scalar {
            return; // no AVX2 on this host (or forced scalar)
        }
        let mut m = [[0.0f32; 8]; 8];
        for (i, row) in m.iter_mut().enumerate() {
            for (j, v) in row.iter_mut().enumerate() {
                *v = (i * 8 + j) as f32;
            }
        }
        let mut out = [[0.0f32; 8]; 8];
        // SAFETY: AVX2 detected above.
        let rows = std::array::from_fn(|i| unsafe { x8::F32x8::load(m[i].as_ptr()) });
        unsafe {
            let t = x8::transpose8x8(rows);
            for (i, v) in t.iter().enumerate() {
                v.store(out[i].as_mut_ptr());
            }
        }
        for i in 0..8 {
            for j in 0..8 {
                assert_eq!(out[i][j], m[j][i], "({i},{j})");
            }
        }
    }
}
