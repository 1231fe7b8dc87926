//! AVX2+FMA bodies for the dispatched kernels.
//!
//! Every function here is `#[target_feature(enable = "avx2,fma")]`
//! and is only reachable through the dispatch wrappers in `lib.rs`,
//! which verified both features at runtime. Tails (`len % lanes`)
//! fall through to the scalar twins on subslices, which is safe
//! because every kernel is elementwise — results never depend on
//! where the vector/tail boundary lands.
//!
//! Complex kernels work on the interleaved `re, im` storage directly:
//! one `__m256` holds 4 complexes. The complex product uses the
//! moveldup/movehdup/addsub sequence whose per-element operations are
//! the vendored `num-complex` product with the imaginary-part add
//! commuted — bitwise identical (IEEE add commutes).

use crate::{complex_as_floats, complex_as_floats_mut, taps, DotRow, Tap, TapRow};
use num_complex::Complex;
use std::arch::x86_64::*;
use std::mem::MaybeUninit;

/// `(a0·b0, a1·b1, …)` complex product of 4 interleaved complexes.
#[inline(always)]
unsafe fn cmul(a: __m256, b: __m256) -> __m256 {
    let br = _mm256_moveldup_ps(b); // (b.re, b.re) per complex
    let bi = _mm256_movehdup_ps(b); // (b.im, b.im) per complex
    let t1 = _mm256_mul_ps(a, br); // (a.re·b.re, a.im·b.re)
    let sw = _mm256_permute_ps(a, 0xB1); // (a.im, a.re)
    let t2 = _mm256_mul_ps(sw, bi); // (a.im·b.im, a.re·b.im)
    // even lanes t1−t2 = re, odd lanes t1+t2 = im
    _mm256_addsub_ps(t1, t2)
}

/// Negates the imaginary lanes of 4 interleaved complexes (`conj`).
#[inline(always)]
unsafe fn conj4(v: __m256) -> __m256 {
    let m = _mm256_setr_ps(0.0, -0.0, 0.0, -0.0, 0.0, -0.0, 0.0, -0.0);
    _mm256_xor_ps(v, m)
}

macro_rules! real_loop {
    ($dst:ident, $main:ident, $i:ident, $body:block) => {
        let n = $dst.len();
        let $main = n - n % 8;
        let mut $i = 0;
        while $i < $main {
            $body
            $i += 8;
        }
    };
}

#[target_feature(enable = "avx2,fma")]
pub(crate) unsafe fn add_assign_f(dst: &mut [f32], src: &[f32]) {
    assert_eq!(dst.len(), src.len());
    let (dp, sp) = (dst.as_mut_ptr(), src.as_ptr());
    real_loop!(dst, main, i, {
        let d = _mm256_loadu_ps(dp.add(i));
        let s = _mm256_loadu_ps(sp.add(i));
        _mm256_storeu_ps(dp.add(i), _mm256_add_ps(d, s));
    });
    crate::scalar::add_assign_f(&mut dst[main..], &src[main..]);
}

#[target_feature(enable = "avx2,fma")]
pub(crate) unsafe fn mul_assign_f(dst: &mut [f32], src: &[f32]) {
    assert_eq!(dst.len(), src.len());
    let (dp, sp) = (dst.as_mut_ptr(), src.as_ptr());
    real_loop!(dst, main, i, {
        let d = _mm256_loadu_ps(dp.add(i));
        let s = _mm256_loadu_ps(sp.add(i));
        _mm256_storeu_ps(dp.add(i), _mm256_mul_ps(d, s));
    });
    crate::scalar::mul_assign_f(&mut dst[main..], &src[main..]);
}

#[target_feature(enable = "avx2,fma")]
pub(crate) unsafe fn scale_f(dst: &mut [f32], s: f32) {
    let dp = dst.as_mut_ptr();
    let sv = _mm256_set1_ps(s);
    real_loop!(dst, main, i, {
        let d = _mm256_loadu_ps(dp.add(i));
        _mm256_storeu_ps(dp.add(i), _mm256_mul_ps(d, sv));
    });
    crate::scalar::scale_f(&mut dst[main..], s);
}

#[target_feature(enable = "avx2,fma")]
pub(crate) unsafe fn axpy_f(dst: &mut [f32], a: f32, src: &[f32]) {
    assert_eq!(dst.len(), src.len());
    let (dp, sp) = (dst.as_mut_ptr(), src.as_ptr());
    let av = _mm256_set1_ps(a);
    real_loop!(dst, main, i, {
        let d = _mm256_loadu_ps(dp.add(i));
        let s = _mm256_loadu_ps(sp.add(i));
        _mm256_storeu_ps(dp.add(i), _mm256_fmadd_ps(d, av, s));
    });
    crate::scalar::axpy_f(&mut dst[main..], a, &src[main..]);
}

#[target_feature(enable = "avx2,fma")]
pub(crate) unsafe fn sub_scaled_f(dst: &mut [f32], eta: f32, src: &[f32]) {
    assert_eq!(dst.len(), src.len());
    let (dp, sp) = (dst.as_mut_ptr(), src.as_ptr());
    let nv = _mm256_set1_ps(-eta);
    real_loop!(dst, main, i, {
        let d = _mm256_loadu_ps(dp.add(i));
        let s = _mm256_loadu_ps(sp.add(i));
        _mm256_storeu_ps(dp.add(i), _mm256_fmadd_ps(nv, s, d));
    });
    crate::scalar::sub_scaled_f(&mut dst[main..], eta, &src[main..]);
}

#[target_feature(enable = "avx2,fma")]
pub(crate) unsafe fn fma_acc_f(dst: &mut [f32], w: f32, src: &[f32]) {
    assert_eq!(dst.len(), src.len());
    let (dp, sp) = (dst.as_mut_ptr(), src.as_ptr());
    let wv = _mm256_set1_ps(w);
    real_loop!(dst, main, i, {
        let d = _mm256_loadu_ps(dp.add(i));
        let s = _mm256_loadu_ps(sp.add(i));
        _mm256_storeu_ps(dp.add(i), _mm256_fmadd_ps(wv, s, d));
    });
    crate::scalar::fma_acc_f(&mut dst[main..], w, &src[main..]);
}

#[target_feature(enable = "avx2,fma")]
pub(crate) unsafe fn add_assign_c(dst: &mut [Complex<f32>], src: &[Complex<f32>]) {
    assert_eq!(dst.len(), src.len());
    // complex add is lanewise on the interleaved floats
    add_assign_f(complex_as_floats_mut(dst), complex_as_floats(src));
}

#[target_feature(enable = "avx2,fma")]
pub(crate) unsafe fn mul_assign_c(dst: &mut [Complex<f32>], src: &[Complex<f32>]) {
    assert_eq!(dst.len(), src.len());
    let n = dst.len();
    let main = n - n % 4;
    let dp = complex_as_floats_mut(dst).as_mut_ptr();
    let sp = complex_as_floats(src).as_ptr();
    let mut i = 0;
    // 4x unrolled (16 complexes per iteration) for ILP — each cmul is
    // a ~13-cycle dependency chain of cheap ops, so four independent
    // chains keep the shuffle and multiply ports saturated. Unrolling
    // reorders nothing within an element: still lane-exact.
    let main16 = (n - n % 16) * 2;
    while i < main16 {
        let d0 = _mm256_loadu_ps(dp.add(i));
        let d1 = _mm256_loadu_ps(dp.add(i + 8));
        let d2 = _mm256_loadu_ps(dp.add(i + 16));
        let d3 = _mm256_loadu_ps(dp.add(i + 24));
        let s0 = _mm256_loadu_ps(sp.add(i));
        let s1 = _mm256_loadu_ps(sp.add(i + 8));
        let s2 = _mm256_loadu_ps(sp.add(i + 16));
        let s3 = _mm256_loadu_ps(sp.add(i + 24));
        _mm256_storeu_ps(dp.add(i), cmul(d0, s0));
        _mm256_storeu_ps(dp.add(i + 8), cmul(d1, s1));
        _mm256_storeu_ps(dp.add(i + 16), cmul(d2, s2));
        _mm256_storeu_ps(dp.add(i + 24), cmul(d3, s3));
        i += 32;
    }
    while i < main * 2 {
        let d = _mm256_loadu_ps(dp.add(i));
        let s = _mm256_loadu_ps(sp.add(i));
        _mm256_storeu_ps(dp.add(i), cmul(d, s));
        i += 8;
    }
    crate::scalar::mul_assign_c(&mut dst[main..], &src[main..]);
}

#[target_feature(enable = "avx2,fma")]
pub(crate) unsafe fn conj_mul_assign_c(dst: &mut [Complex<f32>], g: &[Complex<f32>]) {
    assert_eq!(dst.len(), g.len());
    let n = dst.len();
    let main = n - n % 4;
    let dp = complex_as_floats_mut(dst).as_mut_ptr();
    let gp = complex_as_floats(g).as_ptr();
    let mut i = 0;
    while i < main * 2 {
        let d = _mm256_loadu_ps(dp.add(i));
        let s = conj4(_mm256_loadu_ps(gp.add(i)));
        _mm256_storeu_ps(dp.add(i), cmul(d, s));
        i += 8;
    }
    crate::scalar::conj_mul_assign_c(&mut dst[main..], &g[main..]);
}

#[target_feature(enable = "avx2,fma")]
pub(crate) unsafe fn bias_add_f(dst: &mut [f32], bias: f32) {
    let dp = dst.as_mut_ptr();
    let bv = _mm256_set1_ps(bias);
    real_loop!(dst, main, i, {
        let d = _mm256_loadu_ps(dp.add(i));
        _mm256_storeu_ps(dp.add(i), _mm256_add_ps(d, bv));
    });
    crate::scalar::bias_add_f(&mut dst[main..], bias);
}

#[target_feature(enable = "avx2,fma")]
pub(crate) unsafe fn bias_relu_f(dst: &mut [f32], bias: f32) {
    let dp = dst.as_mut_ptr();
    let bv = _mm256_set1_ps(bias);
    let zero = _mm256_setzero_ps();
    real_loop!(dst, main, i, {
        let t = _mm256_add_ps(_mm256_loadu_ps(dp.add(i)), bv);
        // t > 0 keeps t; else (incl. NaN, ±0) the AND yields +0.0 —
        // matching the scalar branch, which returns literal 0.0.
        let mask = _mm256_cmp_ps::<_CMP_GT_OQ>(t, zero);
        _mm256_storeu_ps(dp.add(i), _mm256_and_ps(t, mask));
    });
    crate::scalar::bias_relu_f(&mut dst[main..], bias);
}

#[target_feature(enable = "avx2,fma")]
pub(crate) unsafe fn bias_leaky_relu_f(dst: &mut [f32], bias: f32, a: f32) {
    let dp = dst.as_mut_ptr();
    let bv = _mm256_set1_ps(bias);
    let av = _mm256_set1_ps(a);
    let zero = _mm256_setzero_ps();
    real_loop!(dst, main, i, {
        let t = _mm256_add_ps(_mm256_loadu_ps(dp.add(i)), bv);
        let mask = _mm256_cmp_ps::<_CMP_GT_OQ>(t, zero);
        let leaked = _mm256_mul_ps(av, t);
        _mm256_storeu_ps(dp.add(i), _mm256_blendv_ps(leaked, t, mask));
    });
    crate::scalar::bias_leaky_relu_f(&mut dst[main..], bias, a);
}

#[target_feature(enable = "avx2,fma")]
pub(crate) unsafe fn relu_deriv_mul_f(dst: &mut [f32], y: &[f32]) {
    assert_eq!(dst.len(), y.len());
    let (dp, yp) = (dst.as_mut_ptr(), y.as_ptr());
    let zero = _mm256_setzero_ps();
    let one = _mm256_set1_ps(1.0);
    real_loop!(dst, main, i, {
        let yv = _mm256_loadu_ps(yp.add(i));
        // multiply by a selected 1.0/0.0 (not a bitmask AND) so the
        // scalar `*d *= factor` semantics for ±0/NaN in dst carry over
        let f = _mm256_blendv_ps(zero, one, _mm256_cmp_ps::<_CMP_GT_OQ>(yv, zero));
        let d = _mm256_loadu_ps(dp.add(i));
        _mm256_storeu_ps(dp.add(i), _mm256_mul_ps(d, f));
    });
    crate::scalar::relu_deriv_mul_f(&mut dst[main..], &y[main..]);
}

#[target_feature(enable = "avx2,fma")]
pub(crate) unsafe fn leaky_relu_deriv_mul_f(dst: &mut [f32], y: &[f32], a: f32) {
    assert_eq!(dst.len(), y.len());
    let (dp, yp) = (dst.as_mut_ptr(), y.as_ptr());
    let zero = _mm256_setzero_ps();
    let one = _mm256_set1_ps(1.0);
    let av = _mm256_set1_ps(a);
    real_loop!(dst, main, i, {
        let yv = _mm256_loadu_ps(yp.add(i));
        let f = _mm256_blendv_ps(av, one, _mm256_cmp_ps::<_CMP_GT_OQ>(yv, zero));
        let d = _mm256_loadu_ps(dp.add(i));
        _mm256_storeu_ps(dp.add(i), _mm256_mul_ps(d, f));
    });
    crate::scalar::leaky_relu_deriv_mul_f(&mut dst[main..], &y[main..], a);
}

#[target_feature(enable = "avx2,fma")]
pub(crate) unsafe fn logistic_deriv_mul_f(dst: &mut [f32], y: &[f32]) {
    assert_eq!(dst.len(), y.len());
    let (dp, yp) = (dst.as_mut_ptr(), y.as_ptr());
    let one = _mm256_set1_ps(1.0);
    real_loop!(dst, main, i, {
        let yv = _mm256_loadu_ps(yp.add(i));
        let f = _mm256_mul_ps(yv, _mm256_sub_ps(one, yv));
        let d = _mm256_loadu_ps(dp.add(i));
        _mm256_storeu_ps(dp.add(i), _mm256_mul_ps(d, f));
    });
    crate::scalar::logistic_deriv_mul_f(&mut dst[main..], &y[main..]);
}

#[target_feature(enable = "avx2,fma")]
pub(crate) unsafe fn tanh_deriv_mul_f(dst: &mut [f32], y: &[f32]) {
    assert_eq!(dst.len(), y.len());
    let (dp, yp) = (dst.as_mut_ptr(), y.as_ptr());
    let one = _mm256_set1_ps(1.0);
    real_loop!(dst, main, i, {
        let yv = _mm256_loadu_ps(yp.add(i));
        let f = _mm256_sub_ps(one, _mm256_mul_ps(yv, yv));
        let d = _mm256_loadu_ps(dp.add(i));
        _mm256_storeu_ps(dp.add(i), _mm256_mul_ps(d, f));
    });
    crate::scalar::tanh_deriv_mul_f(&mut dst[main..], &y[main..]);
}

/// Multi-tap row pass over 8-lane vectors (see `taps.rs`); AVX-512
/// hosts run it too.
///
/// # Safety
///
/// AVX2+FMA must be available, and every row and tap run must be in
/// bounds, as `crate::fma_taps_f` checks before calling.
#[target_feature(enable = "avx2,fma")]
pub(crate) unsafe fn fma_taps_f(
    dst: &mut [f32],
    src: &[f32],
    len: usize,
    t: &[Tap],
    rows: &[TapRow],
) {
    taps::fma_taps(dst, src, len, t, rows);
}

/// f64 tap dot over two 4-lane halves (see `taps.rs`).
///
/// # Safety
///
/// AVX2+FMA must be available, `out.len() == offs.len()`, and every
/// row plus its farthest tap must be in bounds, as
/// `crate::dot_taps_f64` checks before calling.
#[target_feature(enable = "avx2,fma")]
pub(crate) unsafe fn dot_taps_f64<R: DotRow>(
    out: &mut [f64],
    a: &[f32],
    b: &[f64],
    len: usize,
    rows: &[R],
    offs: &[usize],
) {
    taps::dot_taps(out, a, b, len, rows, offs);
}

/// Swaps the `re, im` lanes of 4 interleaved complexes.
#[inline(always)]
unsafe fn swap_ri(v: __m256) -> __m256 {
    _mm256_permute_ps(v, 0xB1)
}

/// The 4 complexes at `p`, in reverse order: `(p[3], p[2], p[1], p[0])`.
///
/// # Safety
///
/// AVX2 is enabled and the 8 floats at `p` are readable.
#[inline(always)]
unsafe fn load_rev4(p: *const f32) -> __m256 {
    let v = _mm256_castps_pd(_mm256_loadu_ps(p));
    _mm256_castpd_ps(_mm256_permute4x64_pd(v, 0x1B))
}

/// Unpack bins `k..k+4` (all in `1..hn`) into `dp`, reading `z[k..]`
/// and the mirrors `z[hn−k−3 ..= hn−k]` by a reversed load. Each
/// product is spelled out so that every lane multiplies and adds the
/// twin's operands in the twin's order: `zo` keeps both `× 0.0` terms
/// of `(zk − zc)·(0 − 0.5i)`, and `tw·zo` is the `num-complex` product.
///
/// # Safety
///
/// AVX2 is enabled, `1 ≤ k` and `k + 4 ≤ hn`; `zp` points to `hn`
/// complexes, `wp` to at least `k + 4` and `dp` to at least `k + 4`
/// writable ones.
#[inline(always)]
unsafe fn unpack4(zp: *const f32, wp: *const f32, dp: *mut f32, hn: usize, k: usize) {
    let half = _mm256_set1_ps(0.5);
    // (0, −0.5) and (−0.5, 0): the factor's components in the order
    // the product's re and im lanes take them
    let re_row = _mm256_setr_ps(0.0, -0.5, 0.0, -0.5, 0.0, -0.5, 0.0, -0.5);
    let im_row = _mm256_setr_ps(-0.5, 0.0, -0.5, 0.0, -0.5, 0.0, -0.5, 0.0);
    let zk = _mm256_loadu_ps(zp.add(2 * k));
    let zc = conj4(load_rev4(zp.add(2 * (hn - k - 3))));
    let ze = _mm256_mul_ps(_mm256_add_ps(zk, zc), half);
    let dl = _mm256_sub_ps(zk, zc);
    // zo = (dl.re·0 − dl.im·(−0.5), dl.re·(−0.5) + dl.im·0)
    let t1 = _mm256_mul_ps(_mm256_moveldup_ps(dl), re_row);
    let t2 = _mm256_mul_ps(_mm256_movehdup_ps(dl), im_row);
    let zo = _mm256_addsub_ps(t1, t2);
    // tw·zo = (tw.re·zo.re − tw.im·zo.im, tw.re·zo.im + tw.im·zo.re)
    let w = _mm256_loadu_ps(wp.add(2 * k));
    let p1 = _mm256_mul_ps(_mm256_moveldup_ps(w), zo);
    let p2 = _mm256_mul_ps(_mm256_movehdup_ps(w), swap_ri(zo));
    _mm256_storeu_ps(dp.add(2 * k), _mm256_add_ps(ze, _mm256_addsub_ps(p1, p2)));
}

/// Repack bins `k..k+4` (all in `0..hn`) into `zp`, reading `x[k..]`
/// and the mirrors `x[hn−k−3 ..= hn−k]` by a reversed load, with the
/// twin's operand order per lane: `zo = ((xk − xc)·0.5)·tw` and
/// `z = (ze.re − zo.im, ze.im + zo.re)`.
///
/// # Safety
///
/// AVX2 is enabled and `k + 4 ≤ hn`; `xp` points to `hn + 1`
/// complexes, `wp` to at least `k + 4` and `zp` to at least `k + 4`
/// writable ones.
#[inline(always)]
unsafe fn repack4(xp: *const f32, wp: *const f32, zp: *mut f32, hn: usize, k: usize) {
    let half = _mm256_set1_ps(0.5);
    let xk = _mm256_loadu_ps(xp.add(2 * k));
    let xc = conj4(load_rev4(xp.add(2 * (hn - k - 3))));
    let ze = _mm256_mul_ps(_mm256_add_ps(xk, xc), half);
    let d = _mm256_mul_ps(_mm256_sub_ps(xk, xc), half);
    // zo = d·tw = (d.re·tw.re − d.im·tw.im, d.re·tw.im + d.im·tw.re)
    let w = _mm256_loadu_ps(wp.add(2 * k));
    let t1 = _mm256_mul_ps(_mm256_moveldup_ps(d), w);
    let t2 = _mm256_mul_ps(_mm256_movehdup_ps(d), swap_ri(w));
    let zo = _mm256_addsub_ps(t1, t2);
    _mm256_storeu_ps(zp.add(2 * k), _mm256_addsub_ps(ze, swap_ri(zo)));
}

/// r2c Hermitian unpack, 4 bins per vector. Bins `0` and `hn` (whose
/// mirror wraps to `z[0]`) run the twin's per-bin function; the body
/// covers `1..hn` with vectors at `1, 5, 9, …` and one last vector
/// ending at `hn`, which may recompute bins an earlier vector wrote
/// (with the same result, so the overlap is invisible). Lines too
/// short for one vector (`hn < 5`) run the twin's per-bin function.
///
/// # Safety
///
/// AVX2+FMA must be available; the lengths are checked here.
#[target_feature(enable = "avx2,fma")]
pub(crate) unsafe fn r2c_unpack(dst: &mut [Complex<f32>], z: &[Complex<f32>], tw: &[Complex<f32>]) {
    use crate::scalar::unpack_bin;
    let hn = z.len();
    crate::scalar::check_packed(hn, dst.len(), tw.len());
    dst[0] = unpack_bin(z[0], z[0], tw[0]);
    dst[hn] = unpack_bin(z[0], z[0], tw[hn]);
    if hn < 5 {
        for k in 1..hn {
            dst[k] = unpack_bin(z[k], z[hn - k], tw[k]);
        }
        return;
    }
    let zp = complex_as_floats(z).as_ptr();
    let wp = complex_as_floats(tw).as_ptr();
    let dp = complex_as_floats_mut(dst).as_mut_ptr();
    // every call below has 1 ≤ k and k + 4 ≤ hn (hn ≥ 5), inside the
    // lengths checked above
    let mut k = 1;
    while k + 4 < hn {
        unpack4(zp, wp, dp, hn, k);
        k += 4;
    }
    unpack4(zp, wp, dp, hn, hn - 4);
}

/// c2r repack, 4 bins per vector over `0..hn` (the mirror `x[hn − k]`
/// never wraps): vectors at `0, 4, 8, …` and one last vector ending at
/// `hn`, overlapping as in [`r2c_unpack`]. Lines too short for one
/// vector (`hn < 4`) run the twin's per-bin function.
///
/// # Safety
///
/// AVX2+FMA must be available; the lengths are checked here.
#[target_feature(enable = "avx2,fma")]
pub(crate) unsafe fn c2r_repack(z: &mut [Complex<f32>], x: &[Complex<f32>], tw: &[Complex<f32>]) {
    use crate::scalar::repack_bin;
    let hn = z.len();
    crate::scalar::check_packed(hn, x.len(), tw.len());
    if hn < 4 {
        for k in 0..hn {
            z[k] = repack_bin(x[k], x[hn - k], tw[k]);
        }
        return;
    }
    let xp = complex_as_floats(x).as_ptr();
    let wp = complex_as_floats(tw).as_ptr();
    let zp = complex_as_floats_mut(z).as_mut_ptr();
    // every call below has k + 4 ≤ hn (hn ≥ 4), inside the lengths
    // checked above
    let mut k = 0;
    while k + 4 < hn {
        repack4(xp, wp, zp, hn, k);
        k += 4;
    }
    repack4(xp, wp, zp, hn, hn - 4);
}

#[target_feature(enable = "avx2,fma")]
pub(crate) unsafe fn scale_copy_f(dst: &mut [MaybeUninit<f32>], src: &[f32], s: f32) {
    assert_eq!(dst.len(), src.len());
    // stores only: no element of `dst` is read, initialized or not
    let (dp, sp) = (dst.as_mut_ptr().cast::<f32>(), src.as_ptr());
    let sv = _mm256_set1_ps(s);
    real_loop!(dst, main, i, {
        _mm256_storeu_ps(dp.add(i), _mm256_mul_ps(_mm256_loadu_ps(sp.add(i)), sv));
    });
    crate::scalar::scale_copy_f(&mut dst[main..], &src[main..], s);
}
