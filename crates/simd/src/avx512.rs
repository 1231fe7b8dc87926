//! AVX-512F bodies for the complex pointwise kernels and the f64 tap
//! dot.
//!
//! Selected when `avx512f` is detected on top of AVX2+FMA. Two kinds
//! of kernel get native 512-bit bodies:
//!
//! * the shuffle-bound complex kernels: on AVX2 the interleaved
//!   complex product costs three port-5 shuffles per four complexes,
//!   which is the throughput wall on Intel server cores — doubling the
//!   vector width halves the shuffle count per element;
//! * the kernel gradient's f64 tap dot ([`crate::dot_taps_f64`]): its
//!   eight `i % 8` lanes are one zmm, so each tap costs one FMA per
//!   eight elements instead of two, and 14 taps share each widened
//!   chunk of `a` (the body lives in `taps.rs`).
//!
//! The streaming real/transfer kernels are load/store-bound already,
//! the f32 multi-tap row pass measured no faster at 512 bits, and the
//! FFT packed-stage kernels run over lines of a few dozen bins, so
//! this module re-exports their AVX2 bodies unchanged (the row pass is
//! dispatched to its AVX2 body directly).
//!
//! Exactness: AVX-512 has no `addsub`; the alternating-sign step is
//! done by flipping the sign bit of the even (real) lanes of the
//! subtrahend and adding — `x − y ≡ x + (−y)` is exact in IEEE-754,
//! so every kernel stays bitwise identical to its scalar twin (crate
//! policy). Tails (`len % 8`) fall through to the AVX2 bodies, which
//! handle their own scalar tails; elementwise kernels never depend on
//! where the vector/tail boundary lands.

use crate::{complex_as_floats, complex_as_floats_mut, taps, DotRow};
use num_complex::Complex;
use std::arch::x86_64::*;

pub(crate) use super::avx2::{
    add_assign_c, add_assign_f, axpy_f, bias_add_f, bias_leaky_relu_f, bias_relu_f, c2r_repack,
    fma_acc_f, leaky_relu_deriv_mul_f, logistic_deriv_mul_f, mul_assign_f, r2c_unpack,
    relu_deriv_mul_f, scale_copy_f, scale_f, sub_scaled_f, tanh_deriv_mul_f,
};

/// Even (real) lanes `x − y`, odd (imag) lanes `x + y` — the `addsub`
/// AVX-512F doesn't have, decomposed as sign-flip + add (bitwise equal
/// to `_mm256_addsub_ps` per lane).
#[inline(always)]
unsafe fn addsub(x: __m512, y: __m512) -> __m512 {
    let m = _mm512_set1_epi64(0x0000_0000_8000_0000);
    let y = _mm512_castsi512_ps(_mm512_xor_si512(_mm512_castps_si512(y), m));
    _mm512_add_ps(x, y)
}

/// `(a0·b0, …, a7·b7)` complex product of 8 interleaved complexes —
/// the same moveldup/movehdup/swap sequence as the AVX2 body, twice
/// as wide.
#[inline(always)]
unsafe fn cmul(a: __m512, b: __m512) -> __m512 {
    let br = _mm512_moveldup_ps(b); // (b.re, b.re) per complex
    let bi = _mm512_movehdup_ps(b); // (b.im, b.im) per complex
    let t1 = _mm512_mul_ps(a, br); // (a.re·b.re, a.im·b.re)
    let sw = _mm512_permute_ps(a, 0xB1); // (a.im, a.re)
    let t2 = _mm512_mul_ps(sw, bi); // (a.im·b.im, a.re·b.im)
    addsub(t1, t2)
}

/// Negates the imaginary lanes of 8 interleaved complexes (`conj`).
#[inline(always)]
unsafe fn conj8(v: __m512) -> __m512 {
    let m = _mm512_set1_epi64(0x8000_0000_0000_0000u64 as i64);
    _mm512_castsi512_ps(_mm512_xor_si512(_mm512_castps_si512(v), m))
}

#[target_feature(enable = "avx512f,avx2,fma")]
pub(crate) unsafe fn mul_assign_c(dst: &mut [Complex<f32>], src: &[Complex<f32>]) {
    assert_eq!(dst.len(), src.len());
    let n = dst.len();
    let main = n - n % 8;
    let dp = complex_as_floats_mut(dst).as_mut_ptr();
    let sp = complex_as_floats(src).as_ptr();
    // 4x unrolled (32 complexes per iteration): four independent cmul
    // dependency chains in flight. Unrolling reorders nothing within
    // an element — still lane-exact.
    let main32 = (n - n % 32) * 2;
    let mut i = 0;
    while i < main32 {
        let d0 = _mm512_loadu_ps(dp.add(i));
        let d1 = _mm512_loadu_ps(dp.add(i + 16));
        let d2 = _mm512_loadu_ps(dp.add(i + 32));
        let d3 = _mm512_loadu_ps(dp.add(i + 48));
        let s0 = _mm512_loadu_ps(sp.add(i));
        let s1 = _mm512_loadu_ps(sp.add(i + 16));
        let s2 = _mm512_loadu_ps(sp.add(i + 32));
        let s3 = _mm512_loadu_ps(sp.add(i + 48));
        _mm512_storeu_ps(dp.add(i), cmul(d0, s0));
        _mm512_storeu_ps(dp.add(i + 16), cmul(d1, s1));
        _mm512_storeu_ps(dp.add(i + 32), cmul(d2, s2));
        _mm512_storeu_ps(dp.add(i + 48), cmul(d3, s3));
        i += 64;
    }
    while i < main * 2 {
        let d = _mm512_loadu_ps(dp.add(i));
        let s = _mm512_loadu_ps(sp.add(i));
        _mm512_storeu_ps(dp.add(i), cmul(d, s));
        i += 16;
    }
    super::avx2::mul_assign_c(&mut dst[main..], &src[main..]);
}

#[target_feature(enable = "avx512f,avx2,fma")]
pub(crate) unsafe fn conj_mul_assign_c(dst: &mut [Complex<f32>], g: &[Complex<f32>]) {
    assert_eq!(dst.len(), g.len());
    let n = dst.len();
    let main = n - n % 8;
    let dp = complex_as_floats_mut(dst).as_mut_ptr();
    let gp = complex_as_floats(g).as_ptr();
    let mut i = 0;
    while i < main * 2 {
        let d = _mm512_loadu_ps(dp.add(i));
        let gv = conj8(_mm512_loadu_ps(gp.add(i)));
        _mm512_storeu_ps(dp.add(i), cmul(d, gv));
        i += 16;
    }
    super::avx2::conj_mul_assign_c(&mut dst[main..], &g[main..]);
}

/// f64 tap dot with all eight lanes in one zmm (see `taps.rs`).
///
/// # Safety
///
/// AVX-512F+AVX2+FMA must be available, `out.len() == offs.len()`,
/// and every row plus its farthest tap must be in bounds, as
/// `crate::dot_taps_f64` checks before calling.
#[target_feature(enable = "avx512f,avx2,fma")]
pub(crate) unsafe fn dot_taps_f64<R: DotRow>(
    out: &mut [f64],
    a: &[f32],
    b: &[f64],
    len: usize,
    rows: &[R],
    offs: &[usize],
) {
    taps::dot_taps_512(out, a, b, len, rows, offs);
}
