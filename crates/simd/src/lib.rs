//! Runtime-dispatched SIMD microkernels for the pointwise layer, the
//! direct convolution passes and the FFT's packed (r2c/c2r) stage.
//!
//! The paper's per-core throughput assumes wide-vector arithmetic
//! (its many-core results lean on Xeon-Phi-class SIMD); this crate is
//! the workspace's single place where vector instructions live. Every
//! kernel comes in at least two bodies:
//!
//! * an **AVX2+FMA** body (`x86_64` only), selected at runtime via
//!   `is_x86_feature_detected!`,
//! * an **AVX-512F** body for the shuffle-bound complex kernels and
//!   the f64 tap dot (selected when `avx512f` is detected on top of
//!   AVX2+FMA; the streaming real kernels and the multi-tap row pass
//!   reuse the AVX2 bodies there), and
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
//! * FMA kernels ([`axpy_f`], [`sub_scaled_f`], [`fma_acc_f`],
//!   [`fma_taps_f`]) fuse in **both** bodies: the twin uses
//!   [`f32::mul_add`], which is the same correctly-rounded operation as
//!   the hardware `vfmadd`.
//!
//! # Direct-convolution kernels
//!
//! Each is one dispatched call per convolution pass, with the row and
//! tap loops inside the vector body:
//!
//! * [`fma_taps_f`] — the multi-tap row kernel of the forward pass and
//!   the input gradient. It keeps a row (or a block of rows sharing a
//!   tap range) in registers across all of its taps, in the caller's
//!   order, and masks the row tail. Exactness class: FMA, bitwise — per
//!   element it is the [`fma_acc_f`] chain over the row's taps.
//! * [`dot_taps_f64`] — the kernel gradient's per-tap dot. It takes
//!   the image side `b` already widened to f64 (exact), so no body
//!   converts it per tap. Exact f32×f32 products are accumulated in
//!   eight f64 lanes (element `i` into lane `i % 8`) and reduced in one
//!   fixed order. The AVX-512F body holds the eight lanes in one zmm
//!   and runs balanced groups of up to 14 taps per widened chunk of
//!   `a`; the AVX2 body holds them as two 4-lane halves, four taps at a
//!   time. Exactness class: add-only in f64, bitwise — every body
//!   performs the twin's additions in the twin's order.
//!
//! # FFT packed-stage kernels
//!
//! The r2c/c2r stage of `znn-fft` packs each even-length real line of
//! `n = 2·hn` samples into `hn` complex values, transforms them, and
//! then unpacks `hn + 1` bins (or, inverse, repacks the bins before
//! transforming). The element loops around the line transforms are:
//!
//! * [`r2c_unpack`] — the forward Hermitian unpack. Bins `0` and `hn`
//!   are peeled; the vector body runs `k ∈ 1..hn`, reading `z[hn − k]`
//!   with a reversed load. Exactness class: add/sub/mul-only, bitwise —
//!   every lane performs the twin's operations in the twin's order,
//!   including the `× 0.0` terms of `(zk − zc)·(0 − 0.5i)`.
//! * [`c2r_repack`] — the inverse's `ze + i·zo` repack over `k ∈ 0..hn`.
//!   Exactness class: add/sub/mul-only, bitwise, as above.
//! * [`scale_copy_f`] — the c2r extract of a dense output row, `count`
//!   samples times the normalization. Exactness class: one multiply per
//!   element, bitwise.
//!
//! The dense forward pack is a plain copy of the real row into the
//! line's interleaved floats, so it has no arithmetic to pin.
//!
//! Because results never depend on which body ran, on lane position,
//! or on tail handling, all of the workspace's bit-determinism
//! guarantees (thread-count invariance, pooled-vs-raw parity,
//! batched-vs-single line transforms) hold *per code path and across
//! code paths*. The differential tests in this crate and in
//! `znn-tensor`/`znn-fft` assert the bitwise pin; callers
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
//! plan-level switches instead (`znn_fft::line::LinePlan::scalar`,
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

#![warn(clippy::undocumented_unsafe_blocks)]
#![warn(unreachable_pub)]

use num_complex::Complex;
use std::mem::MaybeUninit;
use std::sync::OnceLock;

pub mod scalar;

#[cfg(target_arch = "x86_64")]
mod avx2;
#[cfg(target_arch = "x86_64")]
mod avx512;
#[cfg(target_arch = "x86_64")]
mod taps;
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
                    Isa::Avx512F => {
                        // SAFETY: AVX-512F was detected at runtime, on
                        // top of AVX2+FMA; the body checks its lengths.
                        unsafe { avx512::$name($($arg),*) };
                        return;
                    }
                    Isa::Avx2Fma => {
                        // SAFETY: AVX2+FMA were detected at runtime; the
                        // body checks its lengths.
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
    scale_copy_f,
    (dst: &mut [MaybeUninit<f32>], src: &[f32], s: f32),
    "`dst[i] = src[i] · s` (panics on length mismatch) — the c2r \
     extract of a dense output row. Every element of `dst` is written \
     and none is read, so `dst` may be uninitialized."
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
/// One weighted tap of a multi-tap row pass ([`fma_taps_f`]).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tap {
    /// Source offset of the tap, added to each row's `src` base.
    pub off: usize,
    /// The tap's weight.
    pub w: f32,
}

/// One output row of [`fma_taps_f`]: where it lives in `dst`, where its
/// source run starts, and which taps it applies.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TapRow {
    /// Offset of the row's first element in `dst`.
    pub dst: usize,
    /// Source base every tap offset of the row is added to.
    pub src: usize,
    /// The row's taps are `taps[first..end]`, applied in that order.
    pub first: usize,
    /// One past the row's last tap.
    pub end: usize,
}

/// Panics unless every row of a [`fma_taps_f`] pass stays inside
/// `dst` and every tap run inside `src` — the bounds the vector bodies
/// rely on. One pass over the rows; the reach of a tap range is
/// recomputed only when it changes from the previous row's.
fn check_tap_rows(dst_len: usize, src_len: usize, len: usize, taps: &[Tap], rows: &[TapRow]) {
    let mut range = (0, 0);
    let mut reach = 0;
    for r in rows {
        let in_taps = r.first <= r.end && r.end <= taps.len();
        assert!(in_taps, "tap range {}..{} out of bounds", r.first, r.end);
        let row_end = r.dst.checked_add(len);
        assert!(row_end.is_some_and(|e| e <= dst_len), "row at {} overruns dst", r.dst);
        if r.first == r.end {
            continue;
        }
        if (r.first, r.end) != range {
            range = (r.first, r.end);
            reach = taps[r.first..r.end].iter().map(|t| t.off).max().unwrap_or(0);
        }
        assert!(
            r.src.checked_add(reach).and_then(|e| e.checked_add(len)).is_some_and(|e| e <= src_len),
            "row at {} reads past src",
            r.src
        );
    }
}

/// A row of a [`dot_taps_f64`] pass: where it starts in `a` and the
/// base its taps' offsets are added to in `b`.
///
/// A plain `(a, b)` pair is one; so is a [`TapRow`], read as `(dst,
/// src)`. The kernel gradient walks the forward's output rows: the
/// output gradient is shaped like the forward's `dst` and the input is
/// its `src`, so both passes share one row table.
pub trait DotRow: Copy {
    /// `(start in a, base in b)`.
    fn bases(self) -> (usize, usize);
}

impl DotRow for (usize, usize) {
    #[inline(always)]
    fn bases(self) -> (usize, usize) {
        self
    }
}

impl DotRow for TapRow {
    #[inline(always)]
    fn bases(self) -> (usize, usize) {
        (self.dst, self.src)
    }
}

/// Panics unless every row of a [`dot_taps_f64`] pass stays inside `a`
/// and, at its farthest tap, inside `b`.
fn check_dot_rows<R: DotRow>(a_len: usize, b_len: usize, len: usize, rows: &[R], offs: &[usize]) {
    let Some(&reach) = offs.iter().max() else { return };
    for r in rows {
        let (ra, rb) = r.bases();
        assert!(ra.checked_add(len).is_some_and(|e| e <= a_len), "row at {ra} overruns a");
        assert!(
            rb.checked_add(reach).and_then(|e| e.checked_add(len)).is_some_and(|e| e <= b_len),
            "row at {rb} reads past b"
        );
    }
}

/// Multi-tap row pass: for every row `r` and every `i < len`,
/// `dst[r.dst + i] = fma(w, src[r.src + off + i], dst[r.dst + i])`
/// for each tap `(off, w)` of `taps[r.first..r.end]`, in that order.
///
/// Per element this is exactly the [`fma_acc_f`] sequence over the
/// row's taps, so the result is bitwise the per-tap loop's; the vector
/// bodies keep each row (or a block of rows sharing one tap range) in
/// registers across all of its taps and mask the tail. Rows must not
/// overlap in `dst`. Panics when a row or a tap run is out of bounds.
///
/// Dispatched: the AVX2+FMA body when detected (AVX-512 hosts
/// included), else the scalar twin in [`scalar`].
pub fn fma_taps_f(dst: &mut [f32], src: &[f32], len: usize, taps: &[Tap], rows: &[TapRow]) {
    check_tap_rows(dst.len(), src.len(), len, taps, rows);
    #[cfg(target_arch = "x86_64")]
    {
        match isa() {
            Isa::Avx512F | Isa::Avx2Fma => {
                // SAFETY: AVX2+FMA were detected at runtime (`Avx512F`
                // implies them), and `check_tap_rows` bounded every row
                // and tap run.
                unsafe { avx2::fma_taps_f(dst, src, len, taps, rows) };
                return;
            }
            Isa::Scalar => {}
        }
    }
    scalar::fma_taps_f(dst, src, len, taps, rows);
}

/// Many dot products over one set of rows, in f64: for each tap `t`,
/// `out[t] = Σ_rows Σ_{i<len} a[ra + i] · b[rb + offs[t] + i]` over the
/// `(ra, rb)` bases of `rows` ([`DotRow`]).
///
/// `b` holds f32 values already widened to f64 (the conversion is
/// exact), so a caller that dots one image against many taps widens it
/// once, not once per tap. Every product of an f32 and a widened f32
/// is exact in f64. Element `i` of a row is added into lane `i % 8` of
/// eight f64 accumulators (rows in order), which are then reduced as
/// `((l0+l4) + (l2+l6)) + ((l1+l5) + (l3+l7))`. All bodies perform
/// exactly these additions, so they are bitwise identical. Panics on
/// `out.len() != offs.len()` or an out-of-bounds row.
///
/// Dispatched: the AVX-512F body (all eight lanes in one register,
/// taps in balanced groups of at most 14) when detected, else the
/// AVX2+FMA body (two 4-lane halves, taps in groups of 4), else the
/// scalar twin in [`scalar`].
pub fn dot_taps_f64<R: DotRow>(
    out: &mut [f64],
    a: &[f32],
    b: &[f64],
    len: usize,
    rows: &[R],
    offs: &[usize],
) {
    assert_eq!(out.len(), offs.len(), "one output per tap");
    check_dot_rows(a.len(), b.len(), len, rows, offs);
    #[cfg(target_arch = "x86_64")]
    {
        match isa() {
            Isa::Avx512F => {
                // SAFETY: AVX-512F was detected at runtime on top of
                // AVX2+FMA, and every row plus the farthest tap was
                // bounded above.
                unsafe { avx512::dot_taps_f64(out, a, b, len, rows, offs) };
                return;
            }
            Isa::Avx2Fma => {
                // SAFETY: AVX2+FMA were detected at runtime, and every
                // row plus the farthest tap was bounded above.
                unsafe { avx2::dot_taps_f64(out, a, b, len, rows, offs) };
                return;
            }
            Isa::Scalar => {}
        }
    }
    scalar::dot_taps_f64(out, a, b, len, rows, offs);
}

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
    r2c_unpack,
    (dst: &mut [Complex<f32>], z: &[Complex<f32>], tw: &[Complex<f32>]),
    "The r2c Hermitian unpack of one packed line: for `k ≤ hn`, with \
     `hn = z.len() ≥ 1`, `zk = z[k mod hn]` and \
     `zc = conj(z[(hn − k) mod hn])`, \
     `dst[k] = (zk + zc)·0.5 + tw[k]·((zk − zc)·(0 − 0.5i))`. \
     Panics unless `dst` and `tw` hold `hn + 1` values."
);
dispatched!(
    c2r_repack,
    (z: &mut [Complex<f32>], x: &[Complex<f32>], tw: &[Complex<f32>]),
    "The c2r repack of one half-spectrum line: for `k < hn`, with \
     `hn = z.len() ≥ 1`, `xc = conj(x[hn − k])`, `ze = (x[k] + xc)·0.5` \
     and `zo = ((x[k] − xc)·0.5)·tw[k]`, `z[k] = ze + i·zo`. Panics \
     unless `x` and `tw` hold `hn + 1` values."
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
        tap_kernels_match_scalar_twins_bitwise();
    }

    type TapCase = (Vec<f32>, Vec<f32>, Vec<Tap>, Vec<TapRow>);
    type DotCase = (Vec<f32>, Vec<f64>, Vec<(usize, usize)>, Vec<usize>);

    /// A multi-tap pass at row length `len`: `nrows` rows whose tap
    /// ranges come in runs of 1, 2, …, so every row-block size and
    /// leftover is hit; rows sit at a gap in `dst` and at odd
    /// (unaligned) offsets in `src`. Returns (dst, src, taps, rows).
    fn tap_pass(len: usize, nrows: usize, seed: u64) -> TapCase {
        let offs = [0usize, 1, 3, 8, 13, 17, 40, 41, 5, 2, 29];
        let w = rand_f(seed, offs.len());
        let mut taps: Vec<Tap> = offs.iter().zip(&w).map(|(&off, &w)| Tap { off, w }).collect();
        taps[4].w = 0.0; // a zero tap is applied like any other
        let ranges = [(0, 11), (2, 7), (0, 1), (5, 11), (3, 3)];
        let (mut rows, mut run, mut r) = (Vec::new(), 1, 0);
        while rows.len() < nrows {
            let (first, end) = ranges[r % ranges.len()];
            for _ in 0..run {
                let k = rows.len();
                rows.push(TapRow { dst: k * (len + 3) + 1, src: k * (len + 5) + 3, first, end });
            }
            run = run % 9 + 1;
            r += 1;
        }
        let dst = rand_f(seed ^ 1, rows.len() * (len + 3) + 1);
        let src = rand_f(seed ^ 2, rows.len() * (len + 5) + 3 + 41 + len);
        (dst, src, taps, rows)
    }

    /// Per-tap dots at row length `len` over `nrows` rows at odd
    /// offsets, for 1..=30 taps (every AVX2 group remainder and every
    /// balanced AVX-512 split, 27 and 25 included). `b` is widened to
    /// f64, as the kernel gradient passes it.
    fn dot_pass(len: usize, nrows: usize, seed: u64) -> DotCase {
        let rows: Vec<(usize, usize)> =
            (0..nrows).map(|k| (k * (len + 1) + 3, k * (len + 2) + 1)).collect();
        let offs: Vec<usize> = (0..1 + seed as usize % 30).map(|t| (t * 13 + 5) % 37).collect();
        // magnitudes spread over 2^±20, so the f64 additions round and
        // any change of association shows in the bits
        let a = rand_f(seed ^ 3, nrows * (len + 1) + 3 + len)
            .into_iter()
            .enumerate()
            .map(|(i, x)| x * 2f32.powi((i * 7 % 41) as i32 - 20))
            .collect();
        let b =
            rand_f(seed ^ 4, nrows * (len + 2) + 1 + 36 + len).into_iter().map(f64::from).collect();
        (a, b, rows, offs)
    }

    /// The multi-tap row pass and the f64 tap dot against their twins,
    /// through the dispatcher and through the AVX2 and AVX-512 dot
    /// bodies directly (when the hardware has them), at every row
    /// length 0–40.
    fn tap_kernels_match_scalar_twins_bitwise() {
        type Rows = fn(&mut [f32], &[f32], usize, &[Tap], &[TapRow]);
        type Dots = fn(&mut [f64], &[f32], &[f64], usize, &[(usize, usize)], &[usize]);
        let mut bodies: Vec<(&str, Rows, Dots)> = vec![("dispatched", fma_taps_f, dot_taps_f64)];
        #[cfg(target_arch = "x86_64")]
        {
            // listed whenever the hardware has AVX2+FMA, even under
            // ZNN_FORCE_SCALAR
            if detect(false) != Isa::Scalar {
                bodies.push((
                    "avx2",
                    |d, s, l, t, r| {
                        check_tap_rows(d.len(), s.len(), l, t, r);
                        // SAFETY: AVX2+FMA detected; rows bounded above.
                        unsafe { avx2::fma_taps_f(d, s, l, t, r) }
                    },
                    |o, a, b, l, r, f| {
                        check_dot_rows(a.len(), b.len(), l, r, f);
                        // SAFETY: AVX2+FMA detected; rows bounded above.
                        unsafe { avx2::dot_taps_f64(o, a, b, l, r, f) }
                    },
                ));
            }
            if detect(false) == Isa::Avx512F {
                bodies.push(("avx512", fma_taps_f, |o, a, b, l, r, f| {
                    check_dot_rows(a.len(), b.len(), l, r, f);
                    // SAFETY: AVX-512F detected; rows bounded above.
                    unsafe { avx512::dot_taps_f64(o, a, b, l, r, f) }
                }));
            }
        }
        for len in 0..=40 {
            for nrows in [0, 1, 5, 23] {
                let seed = (len * 31 + nrows) as u64;
                let (dst, src, taps, rows) = tap_pass(len, nrows, seed);
                let mut want = dst.clone();
                scalar::fma_taps_f(&mut want, &src, len, &taps, &rows);
                let (a, b, drows, offs) = dot_pass(len, nrows, seed);
                let mut dwant = vec![0.0; offs.len()];
                scalar::dot_taps_f64(&mut dwant, &a, &b, len, &drows, &offs);
                for (name, rows_fn, dot_fn) in &bodies {
                    let mut got = dst.clone();
                    rows_fn(&mut got, &src, len, &taps, &rows);
                    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    assert_eq!(bits(&got), bits(&want), "fma_taps_f {name} len={len} rows={nrows}");
                    let mut dgot = vec![f64::NAN; offs.len()];
                    dot_fn(&mut dgot, &a, &b, len, &drows, &offs);
                    let dbits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    let what = format!("dot_taps_f64 {name} len={len} rows={nrows}");
                    assert_eq!(dbits(&dgot), dbits(&dwant), "{what}");
                }
            }
        }
    }

    #[test]
    fn tap_kernels_follow_their_definitions() {
        // one row, two taps: fma(w1, x1, fma(w0, x0, d)) per element
        let src = [1.0f32, 2.0, 3.0, 4.0];
        let taps = [Tap { off: 0, w: 0.5 }, Tap { off: 2, w: -1.0 }];
        let mut dst = [10.0f32, 20.0];
        fma_taps_f(&mut dst, &src, 2, &taps, &[TapRow { dst: 0, src: 0, first: 0, end: 2 }]);
        assert_eq!(dst, [10.0 + 0.5 - 3.0, 20.0 + 1.0 - 4.0]);
        let mut out = [f64::NAN];
        let a = [1.0f32, 2.0, 3.0];
        dot_taps_f64(&mut out, &a, &src.map(f64::from), 3, &[(0, 0)], &[1]);
        assert_eq!(out, [2.0 + 6.0 + 12.0]);
    }

    #[test]
    #[should_panic(expected = "reads past src")]
    fn tap_rows_out_of_bounds_panic() {
        let mut dst = [0.0f32; 4];
        let taps = [Tap { off: 3, w: 1.0 }];
        fma_taps_f(&mut dst, &[0.0; 6], 4, &taps, &[TapRow { dst: 0, src: 0, first: 0, end: 1 }]);
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

    /// `n` values drawn from ±0, ±inf, NaN, ±subnormal, ±1 and random
    /// finite floats, so every lane meets each class next to the others.
    fn special_f(seed: u64, n: usize) -> Vec<f32> {
        let pool = [
            0.0,
            -0.0,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
            f32::from_bits(1),
            -f32::from_bits(0x0040_0000),
            1.0,
            -1.0,
        ];
        let r = rand_f(seed, n);
        r.iter()
            .enumerate()
            .map(|(i, &x)| {
                let pick = ((x + 1.0) * 7.9) as usize + i;
                pool.get(pick % (pool.len() + 3)).copied().unwrap_or(x * 1e3)
            })
            .collect()
    }

    fn pairs(f: Vec<f32>) -> Vec<Complex<f32>> {
        f.chunks_exact(2).map(|p| Complex::new(p[0], p[1])).collect()
    }

    /// The values of a buffer [`scale_copy_f`] filled.
    fn written(v: &[MaybeUninit<f32>]) -> Vec<f32> {
        // SAFETY: every caller passes a buffer whose every element the
        // kernel under test wrote (it writes all of `dst`).
        v.iter().map(|x| unsafe { x.assume_init() }).collect()
    }

    /// Packed-stage twiddles `e^{±iπk/hn}` for `k ≤ hn` (forward:
    /// `sign = −1`), rounded from f64 like the FFT engine's.
    fn twiddles(hn: usize, sign: f64) -> Vec<Complex<f32>> {
        (0..=hn)
            .map(|k| {
                let ang = sign * std::f64::consts::PI * k as f64 / hn as f64;
                Complex::new(ang.cos() as f32, ang.sin() as f32)
            })
            .collect()
    }

    /// The FFT packed-stage kernels against their twins, through the
    /// dispatcher and through the AVX2 body directly (when the hardware
    /// has it), for every `hn` in 1..=70 — vector bodies, tails and the
    /// wrap bins — on random lines, on lines of ±0, ±inf, NaN and
    /// subnormals, and with such values in the twiddles too. Every bit
    /// is compared except a NaN's sign and payload: Rust leaves those
    /// unspecified for arithmetic results, and LLVM picks which NaN
    /// operand propagates per call site (the twin inlined into two
    /// functions already differs), so a NaN must meet a NaN.
    #[test]
    fn packed_stage_kernels_match_scalar_twins_bitwise() {
        type Pack = fn(&mut [Complex<f32>], &[Complex<f32>], &[Complex<f32>]);
        type Extract = fn(&mut [MaybeUninit<f32>], &[f32], f32);
        let mut bodies: Vec<(&str, Pack, Pack, Extract)> =
            vec![("dispatched", r2c_unpack, c2r_repack, scale_copy_f)];
        #[cfg(target_arch = "x86_64")]
        {
            // listed whenever the hardware has AVX2+FMA, even under
            // ZNN_FORCE_SCALAR
            if detect(false) != Isa::Scalar {
                bodies.push((
                    "avx2",
                    // SAFETY: AVX2+FMA detected; the bodies check lengths.
                    |d, z, t| unsafe { avx2::r2c_unpack(d, z, t) },
                    // SAFETY: as above.
                    |z, x, t| unsafe { avx2::c2r_repack(z, x, t) },
                    // SAFETY: as above.
                    |d, s, k| unsafe { avx2::scale_copy_f(d, s, k) },
                ));
            }
        }
        let bits = |x: f32| if x.is_nan() { f32::NAN.to_bits() } else { x.to_bits() };
        let cbits =
            |v: &[Complex<f32>]| v.iter().map(|c| (bits(c.re), bits(c.im))).collect::<Vec<_>>();
        let fbits = |v: &[f32]| v.iter().map(|&x| bits(x)).collect::<Vec<_>>();
        for hn in 1..=70usize {
            let seed = hn as u64;
            for (case, data, fwd, inv) in [
                ("random", rand_f(seed, 2 * hn + 2), twiddles(hn, -1.0), twiddles(hn, 1.0)),
                ("special", special_f(seed, 2 * hn + 2), twiddles(hn, -1.0), twiddles(hn, 1.0)),
                (
                    "special twiddles",
                    special_f(seed ^ 5, 2 * hn + 2),
                    pairs(special_f(seed ^ 6, 2 * hn + 2)),
                    pairs(special_f(seed ^ 7, 2 * hn + 2)),
                ),
            ] {
                let bins = pairs(data.clone());
                let line = &bins[..hn];
                let mut want_u = vec![Complex::new(f32::NAN, 0.0); hn + 1];
                scalar::r2c_unpack(&mut want_u, line, &fwd);
                let mut want_r = vec![Complex::new(f32::NAN, 0.0); hn];
                scalar::c2r_repack(&mut want_r, &bins, &inv);
                let mut want_s = vec![MaybeUninit::uninit(); 2 * hn + 2];
                scalar::scale_copy_f(&mut want_s, &data, 1.0 / 3.0);
                let want_s = written(&want_s);
                for (name, unpack, repack, copy) in &bodies {
                    let what = format!("{name} hn={hn} {case}");
                    let mut got = vec![Complex::new(0.0, f32::NAN); hn + 1];
                    unpack(&mut got, line, &fwd);
                    assert_eq!(cbits(&got), cbits(&want_u), "r2c_unpack {what}");
                    let mut got = vec![Complex::new(0.0, f32::NAN); hn];
                    repack(&mut got, &bins, &inv);
                    assert_eq!(cbits(&got), cbits(&want_r), "c2r_repack {what}");
                    let mut got = vec![MaybeUninit::uninit(); 2 * hn + 2];
                    copy(&mut got, &data, 1.0 / 3.0);
                    assert_eq!(fbits(&written(&got)), fbits(&want_s), "scale_copy_f {what}");
                }
            }
        }
    }

    #[test]
    fn packed_stage_kernels_follow_their_definitions() {
        // a real line x = (1, 2, 3, 4) packs to z = (1 + 2i, 3 + 4i);
        // its length-2 DFT is (4 + 6i, −2 − 2i), which unpacks to the
        // DFT of x: (10, −2 + 2i, −2)
        let z = [Complex::new(4.0f32, 6.0), Complex::new(-2.0, -2.0)];
        let tw = [Complex::new(1.0f32, 0.0), Complex::new(0.0, -1.0), Complex::new(-1.0, 0.0)];
        let mut bins = [Complex::new(f32::NAN, 0.0); 3];
        r2c_unpack(&mut bins, &z, &tw);
        let want = [Complex::new(10.0, 0.0), Complex::new(-2.0, 2.0), Complex::new(-2.0, 0.0)];
        for (b, w) in bins.iter().zip(&want) {
            assert!((b - w).norm() < 1e-6, "{bins:?}");
        }
        // the repack inverts the unpack up to the factor 2 the inverse
        // stage's normalization takes out
        let inv = [Complex::new(1.0f32, 0.0), Complex::new(0.0, 1.0), Complex::new(-1.0, 0.0)];
        let mut back = [Complex::new(f32::NAN, 0.0); 2];
        c2r_repack(&mut back, &want, &inv);
        for (b, w) in back.iter().zip(&z) {
            assert!((b - w).norm() < 1e-6, "{back:?}");
        }
        let mut row = [MaybeUninit::uninit(); 3];
        scale_copy_f(&mut row, &[2.0, -4.0, 8.0], 0.25);
        assert_eq!(written(&row), [0.5, -1.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "one twiddle per bin")]
    fn packed_stage_kernels_check_lengths() {
        let z = [Complex::new(0.0f32, 0.0); 4];
        r2c_unpack(&mut [Complex::new(0.0, 0.0); 5], &z, &[Complex::new(1.0, 0.0); 4]);
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
        // SAFETY: AVX2 detected above; `out` has eight rows of eight.
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
