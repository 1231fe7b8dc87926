//! AVX2+FMA bodies of the multi-tap row pass ([`crate::fma_taps_f`])
//! and the f64 tap dot ([`crate::dot_taps_f64`]), and the AVX-512F
//! body of the dot. AVX-512 hosts run the AVX2 row pass, as they run
//! the streaming real kernels.
//!
//! Everything here is `#[inline(always)]` and reached only from the
//! `#[target_feature]` entry points in `avx2.rs` and `avx512.rs`, so
//! the intrinsics fold into the caller's feature region (as in
//! `x8.rs`). The dispatchers in `lib.rs` bound every row and tap run
//! before calling in; the `debug_assert!`s restate those bounds at
//! each pointer access.
//!
//! The dot takes `b` already widened to f64, so each tap reads it with
//! plain loads: no conversion per tap. The AVX2 body holds the eight
//! lanes as two 4-lane halves and runs taps four at a time; the
//! AVX-512 body holds them in one zmm and runs balanced groups of up
//! to 14 taps, so each widened chunk of `a` feeds a whole group.
//!
//! Exactness: the row pass performs, per element, the same `fma`
//! sequence in the same tap order as the scalar twin, whatever the row
//! blocking; masked tail lanes are never stored. The dot adds each
//! exact f64 product into lane `i % 8` in row and element order
//! (masked lanes add `+0.0`, an exact no-op on accumulators that start
//! at `+0.0`) and reduces the lanes in the twin's fixed order, in both
//! bodies and whatever the tap grouping.

use crate::{DotRow, Tap, TapRow};
use std::arch::x86_64::*;

/// f32 lanes per vector.
const W: usize = 8;

/// Mask selecting the first `n` of 8 lanes.
///
/// # Safety
///
/// AVX2 is enabled.
#[inline(always)]
unsafe fn mask8(n: usize) -> __m256i {
    _mm256_cmpgt_epi32(_mm256_set1_epi32(n as i32), _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7))
}

/// Vectors kept per row in one register block; longer rows are walked
/// in chunks of this many vectors.
const CHUNK: usize = 4;

/// Rows per register block for rows of `nv` vectors: about eight
/// independent accumulators, enough to cover the FMA latency.
fn rows_per_block(nv: usize) -> usize {
    match nv {
        1 => 8,
        2 => 4,
        3 => 3,
        _ => 2,
    }
}

/// One register block: `R` rows sharing `taps`, over one chunk of `NV`
/// vectors whose last vector holds the lanes of `m`. Each accumulator
/// is loaded from `dst`, takes every tap in order, and is stored once.
///
/// # Safety
///
/// AVX2+FMA are enabled; for every row `r`, `dst[d[r]..][..clen]` and,
/// for every tap, `src[s[r] + off..][..clen]` are in bounds; `m`
/// selects the `clen − (NV − 1)·8` lanes of the last vector.
#[inline(always)]
unsafe fn block<const R: usize, const NV: usize>(
    dst: &mut [f32],
    src: &[f32],
    at: ([usize; R], [usize; R]),
    clen: usize,
    taps: &[Tap],
    m: __m256i,
) {
    let (d, s) = at;
    let (dp, sp) = (dst.as_mut_ptr(), src.as_ptr());
    let mut acc = [[_mm256_setzero_ps(); NV]; R];
    for r in 0..R {
        debug_assert!(d[r] + clen <= dst.len() && clen > (NV - 1) * W && clen <= NV * W);
        for (v, a) in acc[r].iter_mut().enumerate() {
            // SAFETY: full vectors lie inside the chunk, the last one
            // is masked to it, and the chunk lies inside `dst`.
            let p = dp.add(d[r] + v * W);
            *a = if v + 1 < NV { _mm256_loadu_ps(p) } else { _mm256_maskload_ps(p, m) };
        }
    }
    for t in taps {
        let w = _mm256_set1_ps(t.w);
        for r in 0..R {
            debug_assert!(s[r] + t.off + clen <= src.len());
            for (v, a) in acc[r].iter_mut().enumerate() {
                // SAFETY: the dispatcher bounded `src + off + len` for
                // every tap of the row; the chunk lies inside the row.
                let p = sp.add(s[r] + t.off + v * W);
                let x = if v + 1 < NV { _mm256_loadu_ps(p) } else { _mm256_maskload_ps(p, m) };
                *a = _mm256_fmadd_ps(w, x, *a);
            }
        }
    }
    for r in 0..R {
        for (v, &a) in acc[r].iter().enumerate() {
            // SAFETY: as for the loads from `dst` above.
            let p = dp.add(d[r] + v * W);
            if v + 1 < NV {
                _mm256_storeu_ps(p, a)
            } else {
                _mm256_maskstore_ps(p, m, a)
            }
        }
    }
}

/// `R` rows sharing one tap range, walked in chunks of at most
/// [`CHUNK`] vectors. Returns `R`.
///
/// # Safety
///
/// As [`fma_taps`], for these rows and `taps`.
#[inline(always)]
unsafe fn rows_block<const R: usize>(
    dst: &mut [f32],
    src: &[f32],
    rows: &[TapRow],
    len: usize,
    taps: &[Tap],
) -> usize {
    debug_assert_eq!(rows.len(), R);
    let mut c = 0;
    while c < len {
        let clen = (len - c).min(CHUNK * W);
        let nv = clen.div_ceil(W);
        let m = mask8(clen - (nv - 1) * W);
        let at =
            (std::array::from_fn(|r| rows[r].dst + c), std::array::from_fn(|r| rows[r].src + c));
        match nv {
            1 => block::<R, 1>(dst, src, at, clen, taps, m),
            2 => block::<R, 2>(dst, src, at, clen, taps, m),
            3 => block::<R, 3>(dst, src, at, clen, taps, m),
            _ => block::<R, 4>(dst, src, at, clen, taps, m),
        }
        c += clen;
    }
    R
}

/// The multi-tap row pass. Consecutive rows that share a tap range are
/// blocked up to [`rows_per_block`] at a time; a shorter run blocks as
/// many rows as it has.
///
/// # Safety
///
/// AVX2+FMA are enabled, and every row and tap run is in bounds
/// (checked by [`crate::fma_taps_f`]).
#[inline(always)]
pub(crate) unsafe fn fma_taps(
    dst: &mut [f32],
    src: &[f32],
    len: usize,
    taps: &[Tap],
    rows: &[TapRow],
) {
    if len == 0 {
        return;
    }
    let rb = rows_per_block(len.div_ceil(W).min(CHUNK));
    let mut i = 0;
    while i < rows.len() {
        let (first, end) = (rows[i].first, rows[i].end);
        let mut j = i + 1;
        while j < rows.len() && j - i < rb && rows[j].first == first && rows[j].end == end {
            j += 1;
        }
        let ts = &taps[first..end];
        while i < j {
            let group = &rows[i..j];
            i += match group.len() {
                8.. => rows_block::<8>(dst, src, &group[..8], len, ts),
                4..=7 => rows_block::<4>(dst, src, &group[..4], len, ts),
                3 => rows_block::<3>(dst, src, group, len, ts),
                2 => rows_block::<2>(dst, src, group, len, ts),
                _ => rows_block::<1>(dst, src, group, len, ts),
            };
        }
    }
}

/// Eight f64 lanes as two 4-lane halves: lanes 0–3 and 4–7.
type D8 = (__m256d, __m256d);

/// `p[0..8]` widened to f64.
///
/// # Safety
///
/// AVX is enabled and `p` is readable for 8 f32s.
#[inline(always)]
unsafe fn widen(p: *const f32) -> D8 {
    (_mm256_cvtps_pd(_mm_loadu_ps(p)), _mm256_cvtps_pd(_mm_loadu_ps(p.add(4))))
}

/// The first lanes of `m` widened from `p`, `+0.0` elsewhere.
///
/// # Safety
///
/// AVX is enabled and `p` is readable for the lanes `m` selects.
#[inline(always)]
unsafe fn widen_part(p: *const f32, m: __m256i) -> D8 {
    let v = _mm256_maskload_ps(p, m);
    (_mm256_cvtps_pd(_mm256_castps256_ps128(v)), _mm256_cvtps_pd(_mm256_extractf128_ps(v, 1)))
}

/// `p[0..8]` as two halves.
///
/// # Safety
///
/// AVX is enabled and `p` is readable for 8 f64s.
#[inline(always)]
unsafe fn load8(p: *const f64) -> D8 {
    (_mm256_loadu_pd(p), _mm256_loadu_pd(p.add(4)))
}

/// Masks selecting the first `n` of 8 f64 lanes, per half.
///
/// # Safety
///
/// AVX2 is enabled.
#[inline(always)]
unsafe fn mask8_pd(n: usize) -> (__m256i, __m256i) {
    let n = _mm256_set1_epi64x(n as i64);
    (
        _mm256_cmpgt_epi64(n, _mm256_setr_epi64x(0, 1, 2, 3)),
        _mm256_cmpgt_epi64(n, _mm256_setr_epi64x(4, 5, 6, 7)),
    )
}

/// The lanes of `m` from `p`, `+0.0` elsewhere.
///
/// # Safety
///
/// AVX is enabled and `p` is readable for the lanes `m` selects.
#[inline(always)]
unsafe fn load_part(p: *const f64, m: (__m256i, __m256i)) -> D8 {
    // the upper half may start past the end of `b`; a masked load
    // reads no unselected lane, and `wrapping_add` keeps the pointer
    // arithmetic defined
    (_mm256_maskload_pd(p, m.0), _mm256_maskload_pd(p.wrapping_add(4), m.1))
}

/// Lanewise `a·b + acc`. The product of two widened f32s is exact, so
/// this is the twin's `acc + a·b`.
///
/// # Safety
///
/// FMA is enabled.
#[inline(always)]
unsafe fn fmadd8(a: D8, b: D8, acc: D8) -> D8 {
    (_mm256_fmadd_pd(a.0, b.0, acc.0), _mm256_fmadd_pd(a.1, b.1, acc.1))
}

/// `((l0+l4) + (l2+l6)) + ((l1+l5) + (l3+l7))`: the halves lanewise,
/// then the two 128-bit halves, then the pair — the twin's reduction
/// order.
///
/// # Safety
///
/// AVX is enabled.
#[inline(always)]
unsafe fn reduce8(v: D8) -> f64 {
    let s = _mm256_add_pd(v.0, v.1);
    let u = _mm_add_pd(_mm256_castpd256_pd128(s), _mm256_extractf128_pd(s, 1));
    _mm_cvtsd_f64(_mm_add_sd(u, _mm_unpackhi_pd(u, u)))
}

/// Taps per AVX2 dot group: each widened `a` chunk feeds this many tap
/// accumulators.
const DOT_GROUP: usize = 4;

/// `G` taps over all rows: each row chunk of `a` is widened once and
/// multiplied into every tap's lanes.
///
/// # Safety
///
/// As [`dot_taps`], for these `G` taps.
#[inline(always)]
unsafe fn dot_group<const G: usize, R: DotRow>(
    out: &mut [f64],
    a: &[f32],
    b: &[f64],
    len: usize,
    rows: &[R],
    offs: &[usize],
) {
    debug_assert!(out.len() == G && offs.len() == G);
    let offs: [usize; G] = std::array::from_fn(|g| offs[g]);
    let (ap, bp) = (a.as_ptr(), b.as_ptr());
    let main = len - len % 8;
    let (m, mb) = (mask8(len % 8), mask8_pd(len % 8));
    let zero = (_mm256_setzero_pd(), _mm256_setzero_pd());
    let mut acc = [zero; G];
    for r in rows {
        let (ra, rb) = r.bases();
        debug_assert!(ra + len <= a.len());
        debug_assert!(offs.iter().all(|&o| rb + o + len <= b.len()));
        let mut i = 0;
        while i < main {
            // SAFETY: `i + 8 <= len`, and the dispatcher bounded
            // `ra + len` in `a` and `rb + off + len` in `b` for every tap.
            let av = widen(ap.add(ra + i));
            for (acc, &o) in acc.iter_mut().zip(&offs) {
                *acc = fmadd8(av, load8(bp.add(rb + o + i)), *acc);
            }
            i += 8;
        }
        if i < len {
            // SAFETY: as above; the masks cover exactly `len - i` lanes.
            let av = widen_part(ap.add(ra + i), m);
            for (acc, &o) in acc.iter_mut().zip(&offs) {
                *acc = fmadd8(av, load_part(bp.add(rb + o + i), mb), *acc);
            }
        }
    }
    for (o, &v) in out.iter_mut().zip(&acc) {
        *o = reduce8(v);
    }
}

/// The AVX2 f64 tap dot, [`DOT_GROUP`] taps at a time.
///
/// # Safety
///
/// AVX2+FMA are enabled, `out.len() == offs.len()`, and every row plus
/// the farthest tap is in bounds (checked by [`crate::dot_taps_f64`]).
#[inline(always)]
pub(crate) unsafe fn dot_taps<R: DotRow>(
    out: &mut [f64],
    a: &[f32],
    b: &[f64],
    len: usize,
    rows: &[R],
    offs: &[usize],
) {
    for (o, t) in out.chunks_mut(DOT_GROUP).zip(offs.chunks(DOT_GROUP)) {
        match t.len() {
            4 => dot_group::<4, R>(o, a, b, len, rows, t),
            3 => dot_group::<3, R>(o, a, b, len, rows, t),
            2 => dot_group::<2, R>(o, a, b, len, rows, t),
            _ => dot_group::<1, R>(o, a, b, len, rows, t),
        }
    }
}

/// Most taps per AVX-512 dot group: one zmm accumulator per tap, and
/// the widened `a` chunk, stay in registers across a group's rows.
const DOT_GROUP_512: usize = 14;

/// `G` taps over all rows with the eight `i % 8` lanes in one zmm per
/// tap: each row chunk of `a` is widened once and multiplied into
/// every tap's lanes.
///
/// # Safety
///
/// As [`dot_taps_512`], for these `G` taps.
#[inline(always)]
unsafe fn dot_group_512<const G: usize, R: DotRow>(
    out: &mut [f64],
    a: &[f32],
    b: &[f64],
    len: usize,
    rows: &[R],
    offs: &[usize],
) {
    debug_assert!(out.len() == G && offs.len() == G);
    let offs: [usize; G] = std::array::from_fn(|g| offs[g]);
    let (ap, bp) = (a.as_ptr(), b.as_ptr());
    let main = len - len % 8;
    let ma = ((1u32 << (len % 8)) - 1) as __mmask16;
    let mb = ma as __mmask8;
    let mut acc = [_mm512_setzero_pd(); G];
    for r in rows {
        let (ra, rb) = r.bases();
        debug_assert!(ra + len <= a.len());
        debug_assert!(offs.iter().all(|&o| rb + o + len <= b.len()));
        let mut i = 0;
        while i < main {
            // SAFETY: `i + 8 <= len`, and the dispatcher bounded
            // `ra + len` in `a` and `rb + off + len` in `b` for every tap.
            let av = _mm512_cvtps_pd(_mm256_loadu_ps(ap.add(ra + i)));
            for (acc, &o) in acc.iter_mut().zip(&offs) {
                *acc = _mm512_fmadd_pd(av, _mm512_loadu_pd(bp.add(rb + o + i)), *acc);
            }
            i += 8;
        }
        if i < len {
            // SAFETY: as above; the masks select exactly the `len - i`
            // lanes left, and masked-off lanes are neither read nor
            // added (they load `+0.0`, an exact no-op).
            let av =
                _mm512_cvtps_pd(_mm512_castps512_ps256(_mm512_maskz_loadu_ps(ma, ap.add(ra + i))));
            for (acc, &o) in acc.iter_mut().zip(&offs) {
                *acc = _mm512_fmadd_pd(av, _mm512_maskz_loadu_pd(mb, bp.add(rb + o + i)), *acc);
            }
        }
    }
    for (o, &v) in out.iter_mut().zip(&acc) {
        *o = reduce8((_mm512_castpd512_pd256(v), _mm512_extractf64x4_pd::<1>(v)));
    }
}

/// The AVX-512F f64 tap dot. The taps split into the fewest groups of
/// at most [`DOT_GROUP_512`], balanced (27 → 14 + 13, 25 → 13 + 12),
/// so every widened `a` chunk feeds as many taps as fit.
///
/// # Safety
///
/// AVX-512F+AVX2+FMA are enabled, `out.len() == offs.len()`, and every
/// row plus the farthest tap is in bounds (checked by
/// [`crate::dot_taps_f64`]).
#[inline(always)]
pub(crate) unsafe fn dot_taps_512<R: DotRow>(
    out: &mut [f64],
    a: &[f32],
    b: &[f64],
    len: usize,
    rows: &[R],
    offs: &[usize],
) {
    let (mut out, mut offs) = (out, offs);
    for left in (1..=offs.len().div_ceil(DOT_GROUP_512)).rev() {
        let g = offs.len().div_ceil(left);
        let (o, out_rest) = out.split_at_mut(g);
        let (t, offs_rest) = offs.split_at(g);
        match g {
            1 => dot_group_512::<1, R>(o, a, b, len, rows, t),
            2 => dot_group_512::<2, R>(o, a, b, len, rows, t),
            3 => dot_group_512::<3, R>(o, a, b, len, rows, t),
            4 => dot_group_512::<4, R>(o, a, b, len, rows, t),
            5 => dot_group_512::<5, R>(o, a, b, len, rows, t),
            6 => dot_group_512::<6, R>(o, a, b, len, rows, t),
            7 => dot_group_512::<7, R>(o, a, b, len, rows, t),
            8 => dot_group_512::<8, R>(o, a, b, len, rows, t),
            9 => dot_group_512::<9, R>(o, a, b, len, rows, t),
            10 => dot_group_512::<10, R>(o, a, b, len, rows, t),
            11 => dot_group_512::<11, R>(o, a, b, len, rows, t),
            12 => dot_group_512::<12, R>(o, a, b, len, rows, t),
            13 => dot_group_512::<13, R>(o, a, b, len, rows, t),
            _ => dot_group_512::<14, R>(o, a, b, len, rows, t),
        }
        (out, offs) = (out_rest, offs_rest);
    }
}
