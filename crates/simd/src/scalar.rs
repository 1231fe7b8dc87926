//! Portable scalar twins of every dispatched kernel.
//!
//! These are the *reference semantics*: each vector body in the crate
//! is pinned bitwise against the function of the same name here. The
//! FMA twins use [`f32::mul_add`] — the same correctly-rounded fused
//! operation the hardware `vfmadd` performs — so fusing is part of the
//! contract, not a vector-path quirk.

use crate::{Tap, TapRow};
use num_complex::Complex;

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

/// Per-tap f64 dot over `rows`: element `i` of a row adds its exact
/// product into lane `i % 8`, and the lanes reduce as
/// `((l0+l4) + (l2+l6)) + ((l1+l5) + (l3+l7))`.
pub fn dot_taps_f64(
    out: &mut [f64],
    a: &[f32],
    b: &[f32],
    len: usize,
    rows: &[(usize, usize)],
    offs: &[usize],
) {
    assert_eq!(out.len(), offs.len());
    for (o, &off) in out.iter_mut().zip(offs) {
        let mut l = [0.0f64; 8];
        for &(ra, rb) in rows {
            for (i, (&x, &y)) in a[ra..][..len].iter().zip(&b[rb + off..][..len]).enumerate() {
                // f32 × f32 is exact in f64: one rounding, in the add
                l[i % 8] += x as f64 * y as f64;
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
