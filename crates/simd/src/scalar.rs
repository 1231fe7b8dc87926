//! Portable scalar twins of every dispatched kernel.
//!
//! These are the *reference semantics*: each vector body in the crate
//! is pinned bitwise against the function of the same name here. The
//! FMA twins use [`f32::mul_add`] — the same correctly-rounded fused
//! operation the hardware `vfmadd` performs — so fusing is part of the
//! contract, not a vector-path quirk.

use crate::{DotRow, Tap, TapRow};
use num_complex::Complex;
use std::mem::MaybeUninit;

/// `dst[i] += src[i]`.
pub fn add_assign_f(dst: &mut [f32], src: &[f32]) {
    assert_eq!(dst.len(), src.len());
    for (d, &s) in dst.iter_mut().zip(src) {
        *d += s;
    }
}

/// `dst[i] *= src[i]`.
pub fn mul_assign_f(dst: &mut [f32], src: &[f32]) {
    assert_eq!(dst.len(), src.len());
    for (d, &s) in dst.iter_mut().zip(src) {
        *d *= s;
    }
}

/// `dst[i] *= s`.
pub fn scale_f(dst: &mut [f32], s: f32) {
    for d in dst.iter_mut() {
        *d *= s;
    }
}

/// `dst[i] = fma(dst[i], a, src[i])` — momentum-SGD axpy, fused.
pub fn axpy_f(dst: &mut [f32], a: f32, src: &[f32]) {
    assert_eq!(dst.len(), src.len());
    for (d, &s) in dst.iter_mut().zip(src) {
        *d = d.mul_add(a, s);
    }
}

/// `dst[i] = fma(-eta, src[i], dst[i])` — SGD parameter step, fused.
pub fn sub_scaled_f(dst: &mut [f32], eta: f32, src: &[f32]) {
    assert_eq!(dst.len(), src.len());
    let neg = -eta;
    for (d, &s) in dst.iter_mut().zip(src) {
        *d = neg.mul_add(s, *d);
    }
}

/// `dst[i] = fma(w, src[i], dst[i])` — convolver tap accumulate, fused.
pub fn fma_acc_f(dst: &mut [f32], w: f32, src: &[f32]) {
    assert_eq!(dst.len(), src.len());
    for (d, &s) in dst.iter_mut().zip(src) {
        *d = w.mul_add(s, *d);
    }
}

/// Multi-tap row pass: each row of `rows` gets its taps applied one
/// after another as [`fma_acc_f`] over the row — the per-tap loop the
/// vector bodies are pinned against.
pub fn fma_taps_f(dst: &mut [f32], src: &[f32], len: usize, taps: &[Tap], rows: &[TapRow]) {
    for r in rows {
        let d = &mut dst[r.dst..][..len];
        for t in &taps[r.first..r.end] {
            fma_acc_f(d, t.w, &src[r.src + t.off..][..len]);
        }
    }
}

/// Per-tap f64 dot over `rows`: element `i` of a row adds the exact
/// product of `a` and the widened `b` into lane `i % 8`, and the lanes
/// reduce as `((l0+l4) + (l2+l6)) + ((l1+l5) + (l3+l7))`.
pub fn dot_taps_f64<R: DotRow>(
    out: &mut [f64],
    a: &[f32],
    b: &[f64],
    len: usize,
    rows: &[R],
    offs: &[usize],
) {
    assert_eq!(out.len(), offs.len());
    for (o, &off) in out.iter_mut().zip(offs) {
        let mut l = [0.0f64; 8];
        for r in rows {
            let (ra, rb) = r.bases();
            for (i, (&x, &y)) in a[ra..][..len].iter().zip(&b[rb + off..][..len]).enumerate() {
                // f32 × widened f32 is exact in f64: one rounding, in
                // the add
                l[i % 8] += x as f64 * y;
            }
        }
        *o = ((l[0] + l[4]) + (l[2] + l[6])) + ((l[1] + l[5]) + (l[3] + l[7]));
    }
}

/// `dst[i] += src[i]` for complex slices.
pub fn add_assign_c(dst: &mut [Complex<f32>], src: &[Complex<f32>]) {
    assert_eq!(dst.len(), src.len());
    for (d, &s) in dst.iter_mut().zip(src) {
        *d += s;
    }
}

/// `dst[i] *= src[i]`.
pub fn mul_assign_c(dst: &mut [Complex<f32>], src: &[Complex<f32>]) {
    assert_eq!(dst.len(), src.len());
    for (d, &s) in dst.iter_mut().zip(src) {
        *d *= s;
    }
}

/// `dst[i] *= conj(g[i])`.
pub fn conj_mul_assign_c(dst: &mut [Complex<f32>], g: &[Complex<f32>]) {
    assert_eq!(dst.len(), g.len());
    for (d, &s) in dst.iter_mut().zip(g) {
        *d *= s.conj();
    }
}

/// `dst[i] += bias`.
pub fn bias_add_f(dst: &mut [f32], bias: f32) {
    for d in dst.iter_mut() {
        *d += bias;
    }
}

/// `dst[i] = relu(dst[i] + bias)`; `relu(t)` is `t` for `t > 0`, else `0.0`.
pub fn bias_relu_f(dst: &mut [f32], bias: f32) {
    for d in dst.iter_mut() {
        let t = *d + bias;
        *d = if t > 0.0 { t } else { 0.0 };
    }
}

/// `dst[i] = t > 0 ? t : a·t` for `t = dst[i] + bias`.
pub fn bias_leaky_relu_f(dst: &mut [f32], bias: f32, a: f32) {
    for d in dst.iter_mut() {
        let t = *d + bias;
        *d = if t > 0.0 { t } else { a * t };
    }
}

/// `dst[i] *= (y[i] > 0 ? 1.0 : 0.0)`.
pub fn relu_deriv_mul_f(dst: &mut [f32], y: &[f32]) {
    assert_eq!(dst.len(), y.len());
    for (d, &yv) in dst.iter_mut().zip(y) {
        *d *= if yv > 0.0 { 1.0 } else { 0.0 };
    }
}

/// `dst[i] *= (y[i] > 0 ? 1.0 : a)`.
pub fn leaky_relu_deriv_mul_f(dst: &mut [f32], y: &[f32], a: f32) {
    assert_eq!(dst.len(), y.len());
    for (d, &yv) in dst.iter_mut().zip(y) {
        *d *= if yv > 0.0 { 1.0 } else { a };
    }
}

/// `dst[i] *= y[i]·(1 − y[i])`.
pub fn logistic_deriv_mul_f(dst: &mut [f32], y: &[f32]) {
    assert_eq!(dst.len(), y.len());
    for (d, &yv) in dst.iter_mut().zip(y) {
        *d *= yv * (1.0 - yv);
    }
}

/// `dst[i] *= 1 − y[i]²`.
pub fn tanh_deriv_mul_f(dst: &mut [f32], y: &[f32]) {
    assert_eq!(dst.len(), y.len());
    for (d, &yv) in dst.iter_mut().zip(y) {
        *d *= 1.0 - yv * yv;
    }
}

/// Bin `k` of the r2c Hermitian unpack from the packed line's `z[k]`,
/// its mirror `z[hn − k]` and the twiddle `tw[k]` — the per-bin
/// arithmetic every body of [`r2c_unpack`] performs, `× 0.0` terms
/// included.
#[inline(always)]
pub(crate) fn unpack_bin(zk: Complex<f32>, zm: Complex<f32>, tw: Complex<f32>) -> Complex<f32> {
    let zc = zm.conj();
    let ze = (zk + zc) * 0.5;
    let zo = (zk - zc) * Complex::new(0.0, -0.5);
    ze + tw * zo
}

/// Bin `k` of the c2r repack from `x[k]`, its mirror `x[hn − k]` and
/// the twiddle `tw[k]`: `ze + i·zo`.
#[inline(always)]
pub(crate) fn repack_bin(xk: Complex<f32>, xm: Complex<f32>, tw: Complex<f32>) -> Complex<f32> {
    let xc = xm.conj();
    let ze = (xk + xc) * 0.5;
    let zo = (xk - xc) * 0.5 * tw;
    Complex::new(ze.re - zo.im, ze.im + zo.re)
}

/// Panics unless the packed line `z` (`hn ≥ 1` values) pairs with
/// `hn + 1` bins and `hn + 1` twiddles.
pub(crate) fn check_packed(hn: usize, bins: usize, tw: usize) {
    assert!(hn >= 1, "empty packed line");
    assert_eq!(bins, hn + 1, "a packed line of {hn} holds {} bins", hn + 1);
    assert_eq!(tw, hn + 1, "one twiddle per bin");
}

/// r2c Hermitian unpack: `dst[k]` (`k ≤ hn`) from the transformed
/// packed line `z` (`hn` values), `z[k mod hn]`, `conj(z[(hn − k) mod hn])`
/// and `tw[k]`.
pub fn r2c_unpack(dst: &mut [Complex<f32>], z: &[Complex<f32>], tw: &[Complex<f32>]) {
    let hn = z.len();
    check_packed(hn, dst.len(), tw.len());
    dst[0] = unpack_bin(z[0], z[0], tw[0]);
    dst[hn] = unpack_bin(z[0], z[0], tw[hn]);
    for k in 1..hn {
        dst[k] = unpack_bin(z[k], z[hn - k], tw[k]);
    }
}

/// c2r repack: `z[k]` (`k < hn`) from the bins `x` (`hn + 1` values),
/// `x[k]`, `conj(x[hn − k])` and `tw[k]`.
pub fn c2r_repack(z: &mut [Complex<f32>], x: &[Complex<f32>], tw: &[Complex<f32>]) {
    let hn = z.len();
    check_packed(hn, x.len(), tw.len());
    for (k, d) in z.iter_mut().enumerate() {
        *d = repack_bin(x[k], x[hn - k], tw[k]);
    }
}

/// `dst[i] = src[i] · s`, writing every element of `dst` and reading
/// none.
pub fn scale_copy_f(dst: &mut [MaybeUninit<f32>], src: &[f32], s: f32) {
    assert_eq!(dst.len(), src.len());
    for (d, &v) in dst.iter_mut().zip(src) {
        d.write(v * s);
    }
}
