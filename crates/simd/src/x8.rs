//! Thin 8-lane f32 vector wrappers over AVX2 intrinsics.
//!
//! These exist so the batched Stockham butterflies (in `znn-fft`'s
//! line plans) and the pointwise kernels in this crate share one audited
//! set of lane operations. Everything here is `unsafe` — the caller
//! must have verified AVX2 (+FMA for [`F32x8::fmadd`]) at runtime —
//! and `#[inline(always)]` so the ops fold into the caller's
//! `#[target_feature]` region instead of crossing an ABI boundary.
//!
//! Arithmetic maps 1:1 onto single IEEE operations per lane, so any
//! sequence of these ops is bitwise-equal to the same sequence of
//! scalar ops per lane. [`CF32x8::mul`] performs the complex product
//! in the vendored `num-complex` operation order, keeping twiddle
//! multiplication bitwise-identical to the scalar Stockham stages.

#![allow(clippy::missing_safety_doc)] // every fn: see module docs — caller guarantees AVX2(+FMA)

use std::arch::x86_64::*;

/// 8 f32 lanes in a `__m256`.
#[derive(Clone, Copy, Debug)]
pub struct F32x8(pub __m256);

impl F32x8 {
    /// All lanes = `v`. Safety: AVX2 (see module docs).
    #[inline(always)]
    pub unsafe fn splat(v: f32) -> Self {
        F32x8(_mm256_set1_ps(v))
    }

    /// All lanes zero. Safety: AVX2.
    #[inline(always)]
    pub unsafe fn zero() -> Self {
        F32x8(_mm256_setzero_ps())
    }

    /// Unaligned load of 8 consecutive f32s. Safety: AVX2, `ptr`
    /// readable for 8 f32s.
    #[inline(always)]
    pub unsafe fn load(ptr: *const f32) -> Self {
        F32x8(_mm256_loadu_ps(ptr))
    }

    /// Unaligned store of 8 consecutive f32s. Safety: AVX2, `ptr`
    /// writable for 8 f32s.
    #[inline(always)]
    pub unsafe fn store(self, ptr: *mut f32) {
        _mm256_storeu_ps(ptr, self.0)
    }

    /// Lanewise `self + b`. Safety: AVX2.
    #[inline(always)]
    pub unsafe fn add(self, b: Self) -> Self {
        F32x8(_mm256_add_ps(self.0, b.0))
    }

    /// Lanewise `self − b`. Safety: AVX2.
    #[inline(always)]
    pub unsafe fn sub(self, b: Self) -> Self {
        F32x8(_mm256_sub_ps(self.0, b.0))
    }

    /// Lanewise `self · b`. Safety: AVX2.
    #[inline(always)]
    pub unsafe fn mul(self, b: Self) -> Self {
        F32x8(_mm256_mul_ps(self.0, b.0))
    }

    /// Lanewise fused `self · b + c` (single rounding — matches
    /// [`f32::mul_add`]). Safety: AVX2 **and FMA**.
    #[inline(always)]
    pub unsafe fn fmadd(self, b: Self, c: Self) -> Self {
        F32x8(_mm256_fmadd_ps(self.0, b.0, c.0))
    }
}

/// 8 complex f32 values in struct-of-arrays form: one vector of real
/// parts, one of imaginary parts.
#[derive(Clone, Copy, Debug)]
pub struct CF32x8 {
    /// Real parts of the 8 lanes.
    pub re: F32x8,
    /// Imaginary parts of the 8 lanes.
    pub im: F32x8,
}

impl CF32x8 {
    /// Lanewise complex add. Safety: AVX2.
    #[inline(always)]
    pub unsafe fn add(self, b: Self) -> Self {
        CF32x8 { re: self.re.add(b.re), im: self.im.add(b.im) }
    }

    /// Lanewise complex subtract. Safety: AVX2.
    #[inline(always)]
    pub unsafe fn sub(self, b: Self) -> Self {
        CF32x8 { re: self.re.sub(b.re), im: self.im.sub(b.im) }
    }

    /// Lanewise complex product in the scalar reference order:
    /// `(a.re·b.re − a.im·b.im, a.re·b.im + a.im·b.re)` — four
    /// separate products, one sub, one add; no fusing. Bitwise equal
    /// to the vendored `num-complex` `Mul`. Safety: AVX2.
    #[inline(always)]
    pub unsafe fn mul(self, b: Self) -> Self {
        CF32x8 {
            re: self.re.mul(b.re).sub(self.im.mul(b.im)),
            im: self.re.mul(b.im).add(self.im.mul(b.re)),
        }
    }
}

/// In-register 8×8 transpose: `out[i][j] = m[j][i]`. An involution —
/// the same routine converts row-major lines to struct-of-arrays
/// columns and back. Safety: AVX2.
#[inline(always)]
pub unsafe fn transpose8x8(m: [F32x8; 8]) -> [F32x8; 8] {
    let t0 = _mm256_unpacklo_ps(m[0].0, m[1].0);
    let t1 = _mm256_unpackhi_ps(m[0].0, m[1].0);
    let t2 = _mm256_unpacklo_ps(m[2].0, m[3].0);
    let t3 = _mm256_unpackhi_ps(m[2].0, m[3].0);
    let t4 = _mm256_unpacklo_ps(m[4].0, m[5].0);
    let t5 = _mm256_unpackhi_ps(m[4].0, m[5].0);
    let t6 = _mm256_unpacklo_ps(m[6].0, m[7].0);
    let t7 = _mm256_unpackhi_ps(m[6].0, m[7].0);

    let s0 = _mm256_shuffle_ps(t0, t2, 0x44);
    let s1 = _mm256_shuffle_ps(t0, t2, 0xEE);
    let s2 = _mm256_shuffle_ps(t1, t3, 0x44);
    let s3 = _mm256_shuffle_ps(t1, t3, 0xEE);
    let s4 = _mm256_shuffle_ps(t4, t6, 0x44);
    let s5 = _mm256_shuffle_ps(t4, t6, 0xEE);
    let s6 = _mm256_shuffle_ps(t5, t7, 0x44);
    let s7 = _mm256_shuffle_ps(t5, t7, 0xEE);

    [
        F32x8(_mm256_permute2f128_ps(s0, s4, 0x20)),
        F32x8(_mm256_permute2f128_ps(s1, s5, 0x20)),
        F32x8(_mm256_permute2f128_ps(s2, s6, 0x20)),
        F32x8(_mm256_permute2f128_ps(s3, s7, 0x20)),
        F32x8(_mm256_permute2f128_ps(s0, s4, 0x31)),
        F32x8(_mm256_permute2f128_ps(s1, s5, 0x31)),
        F32x8(_mm256_permute2f128_ps(s2, s6, 0x31)),
        F32x8(_mm256_permute2f128_ps(s3, s7, 0x31)),
    ]
}
