//! Iterative mixed-radix Stockham autosort kernels for 5-smooth
//! lengths.
//!
//! Decimation in frequency. Each stage maps a sub-transform length
//! `n_cur` (starting at `n`, shrinking by the stage's radix) and a
//! batch stride `s` (starting at 1, growing by the radix) over the
//! data, writing the permuted output of the butterfly directly — the
//! "autosort": no bit/digit-reversal pass, every read and write is
//! unit-stride within an inner loop of `s` consecutive elements. Data
//! ping-pongs between the caller's chunk and the scratch buffer; an
//! odd stage count is fixed with one final copy.
//!
//! A stage of radix `r` (current length `n_cur`, `n1 = n_cur/r`)
//! computes, for `p ∈ [0, n1)` and `q ∈ [0, s)`:
//!
//! ```text
//! x_m = src[q + s·(p + m·n1)],          m = 0..r
//! dst[q + s·(r·p + j)] = w^{j·p} · Σ_m x_m · w_r^{j·m},   j = 0..r
//! ```
//!
//! with `w = e^{∓2πi/n_cur}` and `w_r = e^{∓2πi/r}` (sign per
//! direction). The `w_r^{j·m}` factors are folded into hardcoded
//! butterflies (radix 2/3/4/5 below); the `w^{j·p}` factors stream
//! from a per-stage table in `p` order ([`stage_table`]).
//!
//! # Stage planning
//!
//! [`plan_stages`] factors a 5-smooth `n = 2^a·3^b·5^c` into the stage
//! sequence `⌊a/2⌋ × radix-4`, then `b × radix-3`, then `c × radix-5`,
//! and — when `a` is odd — one trailing radix-2 stage. Running the
//! radix-2 stage last keeps it twiddle-free for pure powers of two
//! (`n_cur == 2` has the single digit `p = 0`, whose twiddle is 1), so
//! the 2^k stage sequences and arithmetic are unchanged from the
//! radix-4/2-only engine. Lengths with prime factors larger than 5
//! stay on the recursive fallback ([`super::recursive`]).
//!
//! # Batched SIMD lines
//!
//! When the process detects AVX2+FMA (via `znn-simd`), 8 independent
//! lines are transformed together as 8-lane vectors in
//! struct-of-arrays slabs (one 8-wide re vector + one im vector per
//! element). Each vector butterfly performs the *same IEEE operations
//! in the same order* as the scalar stage above it (the only
//! re-association is the exact `x + y = y + x` inside the complex
//! product), so every lane is bitwise identical to the scalar per-line
//! path — asserted by the `simd_*` differential tests. The slabs are
//! filled in one of two ways:
//!
//! * **Lanes across adjacent lines** ([`Stockham::process_lanes`]): the
//!   engine's strided passes hand over up to 8 lines whose element `t`
//!   is 8 adjacent complexes in memory (lines at adjacent packed-axis
//!   coordinates). One unaligned load plus a re/im deinterleave fills
//!   slab element `t`, and one interleave store writes it back in
//!   place; a group of fewer than 8 lines masks its loads and stores,
//!   so the absent lanes read as zero and are never written. Nothing is
//!   gathered, scattered or transposed.
//! * **Line-major buffers** (`process` on ≥ 8 contiguous lines — the
//!   packed stage's lines): a gather shim transposes 8 interleaved
//!   lines into the slabs and a scatter shim transposes back. Leftover
//!   lines (`count % 8`) take the scalar path.
//!
//! Non-AVX2 hosts take the scalar path; `Stockham::new` with
//! `allow_simd` false (behind [`LinePlan::scalar`](super::LinePlan::scalar))
//! pins a plan to scalar for benchmarking and differential testing,
//! and such a plan has no lane kernel, so the engine gathers its
//! strided lines instead.

use super::Direction;
use znn_tensor::Complex32;

/// `sin(π/3)` — the radix-3 butterfly's rotation magnitude.
const S3: f32 = 0.866_025_403_784_438_6_f64 as f32;
/// `cos(2π/5)`, `cos(4π/5)`, `sin(2π/5)`, `sin(4π/5)` — the radix-5
/// butterfly's rotation coefficients.
const C51: f32 = 0.309_016_994_374_947_45_f64 as f32;
const C52: f32 = -0.809_016_994_374_947_5_f64 as f32;
const S51: f32 = 0.951_056_516_295_153_5_f64 as f32;
const S52: f32 = 0.587_785_252_292_473_1_f64 as f32;

/// Per-stage twiddle table: the tuples
/// `(w^p, w^{2p}, …, w^{(radix−1)·p})` for `p ∈ 0..n_cur/radix`, stored
/// contiguously in inner-loop order with `w = e^{sign·2πi/n_cur}`.
///
/// The butterfly for output `j` of digit `p` multiplies by `w^{j·p}`,
/// so a stage streams this table linearly — one `radix−1` tuple per
/// `p` — instead of striding a shared full-length table. Entries are
/// computed in `f64` and rounded once to `f32`, so every plan of the
/// same length and direction carries bit-identical twiddles.
fn stage_table(n_cur: usize, radix: usize, sign: f64) -> Vec<Complex32> {
    let n1 = n_cur / radix;
    let step = sign * 2.0 * std::f64::consts::PI / n_cur as f64;
    let mut tw = Vec::with_capacity((radix - 1) * n1);
    for p in 0..n1 {
        for j in 1..radix {
            let ang = step * (j * p) as f64;
            tw.push(Complex32::new(ang.cos() as f32, ang.sin() as f32));
        }
    }
    tw
}

/// One planned Stockham stage: its radix and its streamed twiddle
/// table (`radix − 1` entries per digit `p`).
struct Stage {
    radix: u8,
    twiddles: Vec<Complex32>,
}

/// Factors a 5-smooth `len` into the stage sequence described in the
/// [module docs](self), with per-stage twiddle tables for `sign`.
fn plan_stages(len: usize, sign: f64) -> Vec<Stage> {
    let mut rem = len;
    let mut twos = 0u32;
    while rem.is_multiple_of(2) {
        rem /= 2;
        twos += 1;
    }
    let mut radices = vec![4u8; (twos / 2) as usize];
    while rem.is_multiple_of(3) {
        rem /= 3;
        radices.push(3);
    }
    while rem.is_multiple_of(5) {
        rem /= 5;
        radices.push(5);
    }
    if twos % 2 == 1 {
        radices.push(2);
    }
    assert_eq!(rem, 1, "Stockham::new on non-5-smooth length {len}");
    let mut n_cur = len;
    radices
        .into_iter()
        .map(|radix| {
            let stage = Stage {
                radix,
                twiddles: stage_table(n_cur, radix as usize, sign),
            };
            n_cur /= radix as usize;
            stage
        })
        .collect()
}

/// Iterative mixed-radix Stockham autosort FFT for 5-smooth `n ≥ 2`.
///
/// The hot path of [`LinePlan`](super::LinePlan): every length of the form `2^a·3^b·5^c`
/// — which is every length `znn-fft`'s `good_shape` produces — runs
/// through these kernels; see the [module docs](self) for the stage
/// structure.
pub(super) struct Stockham {
    len: usize,
    /// `-1.0` forward, `+1.0` inverse: the sign of `i` in the
    /// butterflies' rotation terms.
    esign: f32,
    /// Stages in execution order.
    stages: Vec<Stage>,
    /// Batch 8 lines through the AVX2 stage kernels when the buffer
    /// allows it. Decided per *plan* (AVX2+FMA detected and not
    /// suppressed), so scalar-pinned plans coexist with SIMD ones in
    /// one process.
    use_simd: bool,
}

impl Stockham {
    /// Plans 5-smooth `len ≥ 2`. With `allow_simd` false the plan is
    /// pinned to the scalar per-line kernels regardless of detected
    /// ISA — the differential-test and bench baseline.
    pub(super) fn new(len: usize, direction: Direction, allow_simd: bool) -> Self {
        assert!(len >= 2, "Stockham::new needs len >= 2, got {len}");
        let sign = direction.sign();
        Stockham {
            len,
            esign: sign as f32,
            stages: plan_stages(len, sign),
            use_simd: allow_simd && len >= 4 && znn_simd::isa() != znn_simd::Isa::Scalar,
        }
    }

    /// Radix-2 stage. [`plan_stages`] always schedules radix-2 *last*
    /// (`n_cur == 2`, single digit `p = 0`, twiddle `w⁰ = 1`), so the
    /// butterfly is a pure elementwise add/sub over the two halves —
    /// this function asserts that invariant rather than carrying a
    /// general twiddled digit loop no planned sequence can reach.
    fn stage2(src: &[Complex32], dst: &mut [Complex32], s: usize) {
        debug_assert_eq!(
            src.len(),
            2 * s,
            "the radix-2 stage must be scheduled last (n_cur == 2)"
        );
        let (a, b) = src.split_at(s);
        let (d0, d1) = dst.split_at_mut(s);
        for q in 0..s {
            d0[q] = a[q] + b[q];
            d1[q] = a[q] - b[q];
        }
    }

    /// Radix-3 stage:
    ///
    /// ```text
    /// t  = b + c
    /// dst[3p+0] =        a + t
    /// dst[3p+1] = w¹p·((a − t/2) ± i·sin(π/3)·(b − c))
    /// dst[3p+2] = w²p·((a − t/2) ∓ i·sin(π/3)·(b − c))
    /// ```
    ///
    /// (`±`: inverse/forward), folding `w₃ = −1/2 ± i·sin(π/3)`.
    fn stage3(src: &[Complex32], dst: &mut [Complex32], s: usize, tw: &[Complex32], esign: f32) {
        let n1 = src.len() / (3 * s);
        for p in 0..n1 {
            let w1 = tw[2 * p];
            let w2 = tw[2 * p + 1];
            let x0 = &src[s * p..s * (p + 1)];
            let x1 = &src[s * (p + n1)..s * (p + n1) + s];
            let x2 = &src[s * (p + 2 * n1)..s * (p + 2 * n1) + s];
            let (d0, rest) = dst[3 * s * p..3 * s * (p + 1)].split_at_mut(s);
            let (d1, d2) = rest.split_at_mut(s);
            for q in 0..s {
                let a = x0[q];
                let b = x1[q];
                let c = x2[q];
                let t = b + c;
                let m = Complex32::new(a.re - 0.5 * t.re, a.im - 0.5 * t.im);
                let bmc = b - c;
                // jt = esign·i·sin(π/3)·(b−c)
                let jt = Complex32::new(-esign * S3 * bmc.im, esign * S3 * bmc.re);
                d0[q] = a + t;
                let y1 = m + jt;
                let y2 = m - jt;
                d1[q] =
                    Complex32::new(y1.re * w1.re - y1.im * w1.im, y1.re * w1.im + y1.im * w1.re);
                d2[q] =
                    Complex32::new(y2.re * w2.re - y2.im * w2.im, y2.re * w2.im + y2.im * w2.re);
            }
        }
    }

    /// Radix-4 stage — the workhorse, unchanged from the radix-4/2
    /// engine:
    ///
    /// ```text
    /// dst[4p+0] =       (a+c) + (b+d)
    /// dst[4p+1] = w¹p·((a−c) ∓ i(b−d))      (∓: forward/inverse)
    /// dst[4p+2] = w²p·((a+c) − (b+d))
    /// dst[4p+3] = w³p·((a−c) ± i(b−d))
    /// ```
    fn stage4(src: &[Complex32], dst: &mut [Complex32], s: usize, tw: &[Complex32], esign: f32) {
        let n1 = src.len() / (4 * s);
        for p in 0..n1 {
            let w1 = tw[3 * p];
            let w2 = tw[3 * p + 1];
            let w3 = tw[3 * p + 2];
            let x0 = &src[s * p..s * (p + 1)];
            let x1 = &src[s * (p + n1)..s * (p + n1) + s];
            let x2 = &src[s * (p + 2 * n1)..s * (p + 2 * n1) + s];
            let x3 = &src[s * (p + 3 * n1)..s * (p + 3 * n1) + s];
            let block = &mut dst[4 * s * p..4 * s * (p + 1)];
            let (d0, rest) = block.split_at_mut(s);
            let (d1, rest) = rest.split_at_mut(s);
            let (d2, d3) = rest.split_at_mut(s);
            for q in 0..s {
                let a = x0[q];
                let b = x1[q];
                let c = x2[q];
                let d = x3[q];
                let apc = a + c;
                let amc = a - c;
                let bpd = b + d;
                let bmd = b - d;
                // jt = esign·i·(b−d): −i(b−d) forward, +i(b−d) inverse
                let jt = Complex32::new(-esign * bmd.im, esign * bmd.re);
                d0[q] = apc + bpd;
                let y1 = amc + jt;
                let y3 = amc - jt;
                d1[q] =
                    Complex32::new(y1.re * w1.re - y1.im * w1.im, y1.re * w1.im + y1.im * w1.re);
                let y2 = apc - bpd;
                d2[q] =
                    Complex32::new(y2.re * w2.re - y2.im * w2.im, y2.re * w2.im + y2.im * w2.re);
                d3[q] =
                    Complex32::new(y3.re * w3.re - y3.im * w3.im, y3.re * w3.im + y3.im * w3.re);
            }
        }
    }

    /// Radix-5 stage, folding `w₅^{j·m}` into real rotation
    /// coefficients (`c₁ = cos 2π/5`, `c₂ = cos 4π/5`, `s₁ = sin 2π/5`,
    /// `s₂ = sin 4π/5`):
    ///
    /// ```text
    /// t1 = b + e,  t2 = c + d,  t3 = b − e,  t4 = c − d
    /// dst[5p+0] =        a + t1 + t2
    /// dst[5p+1] = w¹p·((a + c₁t1 + c₂t2) ± i(s₁t3 + s₂t4))
    /// dst[5p+2] = w²p·((a + c₂t1 + c₁t2) ± i(s₂t3 − s₁t4))
    /// dst[5p+3] = w³p·((a + c₂t1 + c₁t2) ∓ i(s₂t3 − s₁t4))
    /// dst[5p+4] = w⁴p·((a + c₁t1 + c₂t2) ∓ i(s₁t3 + s₂t4))
    /// ```
    ///
    /// (`±`: inverse/forward).
    fn stage5(src: &[Complex32], dst: &mut [Complex32], s: usize, tw: &[Complex32], esign: f32) {
        let n1 = src.len() / (5 * s);
        for p in 0..n1 {
            let w1 = tw[4 * p];
            let w2 = tw[4 * p + 1];
            let w3 = tw[4 * p + 2];
            let w4 = tw[4 * p + 3];
            let x0 = &src[s * p..s * (p + 1)];
            let x1 = &src[s * (p + n1)..s * (p + n1) + s];
            let x2 = &src[s * (p + 2 * n1)..s * (p + 2 * n1) + s];
            let x3 = &src[s * (p + 3 * n1)..s * (p + 3 * n1) + s];
            let x4 = &src[s * (p + 4 * n1)..s * (p + 4 * n1) + s];
            let block = &mut dst[5 * s * p..5 * s * (p + 1)];
            let (d0, rest) = block.split_at_mut(s);
            let (d1, rest) = rest.split_at_mut(s);
            let (d2, rest) = rest.split_at_mut(s);
            let (d3, d4) = rest.split_at_mut(s);
            for q in 0..s {
                let a = x0[q];
                let b = x1[q];
                let c = x2[q];
                let d = x3[q];
                let e = x4[q];
                let t1 = b + e;
                let t2 = c + d;
                let t3 = b - e;
                let t4 = c - d;
                let m1 = Complex32::new(
                    a.re + C51 * t1.re + C52 * t2.re,
                    a.im + C51 * t1.im + C52 * t2.im,
                );
                let m2 = Complex32::new(
                    a.re + C52 * t1.re + C51 * t2.re,
                    a.im + C52 * t1.im + C51 * t2.im,
                );
                // u1 = s₁t3 + s₂t4, u2 = s₂t3 − s₁t4; j = esign·i·u
                let u1 = Complex32::new(S51 * t3.re + S52 * t4.re, S51 * t3.im + S52 * t4.im);
                let u2 = Complex32::new(S52 * t3.re - S51 * t4.re, S52 * t3.im - S51 * t4.im);
                let j1 = Complex32::new(-esign * u1.im, esign * u1.re);
                let j2 = Complex32::new(-esign * u2.im, esign * u2.re);
                d0[q] = a + t1 + t2;
                let y1 = m1 + j1;
                let y2 = m2 + j2;
                let y3 = m2 - j2;
                let y4 = m1 - j1;
                d1[q] =
                    Complex32::new(y1.re * w1.re - y1.im * w1.im, y1.re * w1.im + y1.im * w1.re);
                d2[q] =
                    Complex32::new(y2.re * w2.re - y2.im * w2.im, y2.re * w2.im + y2.im * w2.re);
                d3[q] =
                    Complex32::new(y3.re * w3.re - y3.im * w3.im, y3.re * w3.im + y3.im * w3.re);
                d4[q] =
                    Complex32::new(y4.re * w4.re - y4.im * w4.im, y4.re * w4.im + y4.im * w4.re);
            }
        }
    }

    /// Transform one `len`-element chunk, using `work` (also `len`
    /// elements) as the ping-pong partner.
    fn transform_chunk(&self, chunk: &mut [Complex32], work: &mut [Complex32]) {
        let mut s = 1usize;
        let mut in_chunk = true;
        for stage in &self.stages {
            let (src, dst): (&[Complex32], &mut [Complex32]) = if in_chunk {
                (&*chunk, &mut *work)
            } else {
                (&*work, &mut *chunk)
            };
            match stage.radix {
                2 => Self::stage2(src, dst, s),
                3 => Self::stage3(src, dst, s, &stage.twiddles, self.esign),
                4 => Self::stage4(src, dst, s, &stage.twiddles, self.esign),
                5 => Self::stage5(src, dst, s, &stage.twiddles, self.esign),
                r => unreachable!("unplanned radix {r}"),
            }
            in_chunk = !in_chunk;
            s *= stage.radix as usize;
        }
        if !in_chunk {
            chunk.copy_from_slice(work);
        }
    }

    /// True when [`Stockham::process_lanes`] runs: the plan takes the
    /// batched SIMD path (AVX2+FMA detected and not pinned to scalar).
    pub(super) fn has_lanes(&self) -> bool {
        self.use_simd
    }

    /// Transforms, in place, the `lanes` lines (`1 ≤ lanes ≤ 8`) whose
    /// element `t` of line `l` is `data[start + t·stride + l]`, through
    /// the SIMD stage kernels; `scratch` holds at least
    /// [`Stockham::scratch_len`] elements. Each line's output is
    /// bitwise identical to the scalar per-line path.
    ///
    /// # Panics
    /// If the plan has no lane kernel ([`Stockham::has_lanes`]), if
    /// `lanes` is outside `1..=min(8, stride)` (lines must not share an
    /// element), or if the group reaches past `data`.
    #[cfg(target_arch = "x86_64")]
    pub(super) fn process_lanes(
        &self,
        data: &mut [Complex32],
        start: usize,
        stride: usize,
        lanes: usize,
        scratch: &mut [Complex32],
    ) {
        let n = self.len;
        assert!(self.use_simd, "process_lanes on a plan without SIMD lines");
        assert!(
            (1..=batch::LANES.min(stride)).contains(&lanes),
            "{lanes} lanes at stride {stride}"
        );
        assert!(
            start + (n - 1) * stride + lanes <= data.len(),
            "lane group at {start} (stride {stride}, {lanes} lanes, length {n}) \
             overruns {} elements",
            data.len()
        );
        let slabs = znn_simd::complex_as_floats_mut(&mut scratch[n..17 * n]);
        let (ping, pong) = slabs.split_at_mut(16 * n);
        // SAFETY: `use_simd` implies AVX2+FMA were detected at runtime;
        // the asserts above put every element `start + t·stride + l`
        // (`t < n`, `l < lanes`) inside `data`, with `lanes ≤ stride`
        // so no two lines share one; `ping`/`pong` are `16·n` floats
        // each — what `transform_lanes` requires.
        unsafe { batch::transform_lanes(self, data, start, stride, lanes, ping, pong) };
    }

    /// Transform `buffer`'s lines in groups of 8 through the SIMD
    /// stage kernels; leftover lines (`count % 8`) take the scalar
    /// per-line path. Output is bitwise identical either way, so the
    /// group boundary is unobservable.
    #[cfg(target_arch = "x86_64")]
    fn process_batched(&self, buffer: &mut [Complex32], scratch: &mut [Complex32]) {
        let n = self.len;
        let (work, slabs) = scratch.split_at_mut(n);
        let floats = znn_simd::complex_as_floats_mut(&mut slabs[..16 * n]);
        let (ping, pong) = floats.split_at_mut(16 * n);
        let lines = buffer.len() / n;
        let grouped = (lines / batch::LANES) * batch::LANES;
        for group in buffer[..grouped * n].chunks_mut(batch::LANES * n) {
            // SAFETY: `use_simd` (checked by the caller) implies
            // AVX2+FMA were detected at runtime; `group` is exactly
            // `LANES` lines of `n`, and `ping`/`pong` are `16·n` floats
            // each — the sizes `transform_batch` requires.
            unsafe { batch::transform_batch(self, group, ping, pong) };
        }
        for chunk in buffer[grouped * n..].chunks_mut(n) {
            self.transform_chunk(chunk, work);
        }
    }
}

impl Stockham {
    /// Transforms every `len`-element chunk of `buffer`; `scratch` holds
    /// at least [`Stockham::scratch_len`] elements.
    pub(super) fn process(&self, buffer: &mut [Complex32], scratch: &mut [Complex32]) {
        let n = self.len;
        assert!(
            buffer.len().is_multiple_of(n),
            "buffer length {} is not a multiple of the FFT length {n}",
            buffer.len()
        );
        #[cfg(target_arch = "x86_64")]
        {
            if self.use_simd && buffer.len() / n >= batch::LANES {
                self.process_batched(buffer, scratch);
                return;
            }
        }
        let work = &mut scratch[..n];
        for chunk in buffer.chunks_mut(n) {
            self.transform_chunk(chunk, work);
        }
    }

    pub(super) fn scratch_len(&self) -> usize {
        // the SIMD path needs the scalar work line plus two 8-line
        // struct-of-arrays slabs (8 complexes = 16 floats per element,
        // ping + pong)
        if self.use_simd {
            17 * self.len
        } else {
            self.len
        }
    }
}

/// 8-line struct-of-arrays batch kernels (AVX2+FMA).
///
/// Layout: element `t` of the 8 batched lines lives at slab float
/// offsets `[16t, 16t+8)` (the 8 real parts, one per line) and
/// `[16t+8, 16t+16)` (the 8 imaginary parts). Each `bstage*` mirrors
/// the scalar stage of the same radix operation-for-operation on
/// `CF32x8` vectors, so every lane computes exactly what the scalar
/// path computes for that line. The slabs are filled from line-major
/// lines by `transform_batch` or straight from adjacent lines in
/// place by `transform_lanes`; both run the same `run_stages`.
///
/// Every function here requires AVX2 and FMA, which the two entry
/// points inherit from their callers (the `use_simd` plan flag is set
/// only when both were detected at runtime). Slabs
/// are `16·n` floats for a line length `n`, so a slab holds elements
/// `t < n`; each stage only touches elements below `n`.
#[cfg(target_arch = "x86_64")]
#[deny(unsafe_op_in_unsafe_fn)]
mod batch {
    use super::{Complex32, Stockham, C51, C52, S3, S51, S52};
    use std::arch::x86_64::*;
    use znn_simd::x8::{transpose8x8, CF32x8, F32x8};

    /// Lines per batch — the f32 lane count of one AVX2 vector.
    pub(super) const LANES: usize = 8;

    /// Loads the 8-lane complex vector for slab element `t`.
    ///
    /// # Safety
    /// AVX2 must be available and `slab` valid for reads of floats
    /// `[16t, 16t+16)`.
    #[inline(always)]
    unsafe fn cv_load(slab: *const f32, t: usize) -> CF32x8 {
        // SAFETY: the caller guarantees AVX2 and that both 8-float
        // halves of element `t` are readable.
        unsafe {
            CF32x8 {
                re: F32x8::load(slab.add(16 * t)),
                im: F32x8::load(slab.add(16 * t + 8)),
            }
        }
    }

    /// Stores the 8-lane complex vector for slab element `t`.
    ///
    /// # Safety
    /// AVX2 must be available and `slab` valid for writes of floats
    /// `[16t, 16t+16)`.
    #[inline(always)]
    unsafe fn cv_store(slab: *mut f32, t: usize, v: CF32x8) {
        // SAFETY: the caller guarantees AVX2 and that both 8-float
        // halves of element `t` are writable.
        unsafe {
            v.re.store(slab.add(16 * t));
            v.im.store(slab.add(16 * t + 8));
        }
    }

    /// Broadcasts one twiddle to all 8 lanes.
    ///
    /// # Safety
    /// AVX2 must be available.
    #[inline(always)]
    unsafe fn cw(w: Complex32) -> CF32x8 {
        // SAFETY: the caller guarantees AVX2; a broadcast touches no
        // memory.
        unsafe {
            CF32x8 {
                re: F32x8::splat(w.re),
                im: F32x8::splat(w.im),
            }
        }
    }

    /// Transposes 8 interleaved lines into the struct-of-arrays slab:
    /// 4-element blocks go through the in-register 8×8 float
    /// transpose (each source row is 4 complexes = 8 floats), the
    /// `n % 4` tail element-by-element.
    ///
    /// # Safety
    /// AVX2 and FMA must be available, `lines.len() == 8·n` and
    /// `slab.len() == 16·n`.
    #[target_feature(enable = "avx2,fma")]
    unsafe fn soa_gather(lines: &[Complex32], slab: &mut [f32], n: usize) {
        let lf = znn_simd::complex_as_floats(lines);
        debug_assert_eq!(lf.len(), LANES * 2 * n);
        debug_assert_eq!(slab.len(), 16 * n);
        let lp = lf.as_ptr();
        let sp = slab.as_mut_ptr();
        let main = n - n % 4;
        let mut t = 0;
        while t < main {
            // SAFETY: `t + 4 <= n`, so line `l < 8` holds the 8 floats
            // from `l·2n + 2t` (4 complexes), and the slab holds
            // elements `t..t+4` (16 floats each); AVX2 is the caller's
            // guarantee.
            unsafe {
                let mut rows = [F32x8::zero(); 8];
                for (l, r) in rows.iter_mut().enumerate() {
                    *r = F32x8::load(lp.add(l * 2 * n + 2 * t));
                }
                let cols = transpose8x8(rows);
                for k in 0..4 {
                    cols[2 * k].store(sp.add(16 * (t + k)));
                    cols[2 * k + 1].store(sp.add(16 * (t + k) + 8));
                }
            }
            t += 4;
        }
        for t in main..n {
            for l in 0..LANES {
                slab[16 * t + l] = lf[l * 2 * n + 2 * t];
                slab[16 * t + 8 + l] = lf[l * 2 * n + 2 * t + 1];
            }
        }
    }

    /// Inverse of [`soa_gather`] (the 8×8 transpose is an involution).
    ///
    /// # Safety
    /// AVX2 and FMA must be available, `slab.len() == 16·n` and
    /// `lines.len() == 8·n`.
    #[target_feature(enable = "avx2,fma")]
    unsafe fn soa_scatter(slab: &[f32], lines: &mut [Complex32], n: usize) {
        let lf = znn_simd::complex_as_floats_mut(lines);
        debug_assert_eq!(lf.len(), LANES * 2 * n);
        debug_assert_eq!(slab.len(), 16 * n);
        let sp = slab.as_ptr();
        let lp = lf.as_mut_ptr();
        let main = n - n % 4;
        let mut t = 0;
        while t < main {
            // SAFETY: the bounds of `soa_gather`, with reads and writes
            // swapped.
            unsafe {
                let mut cols = [F32x8::zero(); 8];
                for k in 0..4 {
                    cols[2 * k] = F32x8::load(sp.add(16 * (t + k)));
                    cols[2 * k + 1] = F32x8::load(sp.add(16 * (t + k) + 8));
                }
                let rows = transpose8x8(cols);
                for (l, r) in rows.iter().enumerate() {
                    r.store(lp.add(l * 2 * n + 2 * t));
                }
            }
            t += 4;
        }
        for t in main..n {
            for l in 0..LANES {
                lf[l * 2 * n + 2 * t] = slab[16 * t + l];
                lf[l * 2 * n + 2 * t + 1] = slab[16 * t + 8 + l];
            }
        }
    }

    /// Radix-2 batch stage — scheduled last, twiddle-free (see the
    /// scalar `stage2`).
    ///
    /// # Safety
    /// AVX2 and FMA must be available; `src` and `dst` must be distinct
    /// slabs of `2·s` elements.
    #[target_feature(enable = "avx2,fma")]
    unsafe fn bstage2(src: *const f32, dst: *mut f32, s: usize) {
        for q in 0..s {
            // SAFETY: `q` and `s + q` are below `2·s`, the slab length
            // in elements.
            unsafe {
                let a = cv_load(src, q);
                let b = cv_load(src, s + q);
                cv_store(dst, q, a.add(b));
                cv_store(dst, s + q, a.sub(b));
            }
        }
    }

    /// Radix-3 batch stage — the scalar `stage3`, 8 lines per op.
    ///
    /// # Safety
    /// AVX2 and FMA must be available; `src` and `dst` must be distinct
    /// slabs of `n` elements with `3·s` dividing `n`, and `tw` must hold
    /// `2·n/(3·s)` twiddles.
    #[target_feature(enable = "avx2,fma")]
    unsafe fn bstage3(
        src: *const f32,
        dst: *mut f32,
        n: usize,
        s: usize,
        tw: &[Complex32],
        esign: f32,
    ) {
        let n1 = n / (3 * s);
        // SAFETY: with `p < n1` and `q < s`, every element index read
        // (`s·(p + m·n1) + q`, `m < 3`) and written (`3·s·p + j·s + q`,
        // `j < 3`) is below `3·s·n1 = n`.
        unsafe {
            let half = F32x8::splat(0.5);
            let pk = F32x8::splat(esign * S3);
            let nk = F32x8::splat(-esign * S3);
            for p in 0..n1 {
                let w1 = cw(tw[2 * p]);
                let w2 = cw(tw[2 * p + 1]);
                for q in 0..s {
                    let a = cv_load(src, s * p + q);
                    let b = cv_load(src, s * (p + n1) + q);
                    let c = cv_load(src, s * (p + 2 * n1) + q);
                    let t = b.add(c);
                    let m = CF32x8 {
                        re: a.re.sub(half.mul(t.re)),
                        im: a.im.sub(half.mul(t.im)),
                    };
                    let bmc = b.sub(c);
                    let jt = CF32x8 {
                        re: nk.mul(bmc.im),
                        im: pk.mul(bmc.re),
                    };
                    let base = 3 * s * p;
                    cv_store(dst, base + q, a.add(t));
                    let y1 = m.add(jt);
                    let y2 = m.sub(jt);
                    cv_store(dst, base + s + q, y1.mul(w1));
                    cv_store(dst, base + 2 * s + q, y2.mul(w2));
                }
            }
        }
    }

    /// Radix-4 batch stage — the scalar `stage4`, 8 lines per op.
    ///
    /// # Safety
    /// AVX2 and FMA must be available; `src` and `dst` must be distinct
    /// slabs of `n` elements with `4·s` dividing `n`, and `tw` must hold
    /// `3·n/(4·s)` twiddles.
    #[target_feature(enable = "avx2,fma")]
    unsafe fn bstage4(
        src: *const f32,
        dst: *mut f32,
        n: usize,
        s: usize,
        tw: &[Complex32],
        esign: f32,
    ) {
        let n1 = n / (4 * s);
        // SAFETY: with `p < n1` and `q < s`, every element index read
        // (`s·(p + m·n1) + q`, `m < 4`) and written (`4·s·p + j·s + q`,
        // `j < 4`) is below `4·s·n1 = n`.
        unsafe {
            let pk = F32x8::splat(esign);
            let nk = F32x8::splat(-esign);
            for p in 0..n1 {
                let w1 = cw(tw[3 * p]);
                let w2 = cw(tw[3 * p + 1]);
                let w3 = cw(tw[3 * p + 2]);
                for q in 0..s {
                    let a = cv_load(src, s * p + q);
                    let b = cv_load(src, s * (p + n1) + q);
                    let c = cv_load(src, s * (p + 2 * n1) + q);
                    let d = cv_load(src, s * (p + 3 * n1) + q);
                    let apc = a.add(c);
                    let amc = a.sub(c);
                    let bpd = b.add(d);
                    let bmd = b.sub(d);
                    let jt = CF32x8 {
                        re: nk.mul(bmd.im),
                        im: pk.mul(bmd.re),
                    };
                    let base = 4 * s * p;
                    cv_store(dst, base + q, apc.add(bpd));
                    let y1 = amc.add(jt);
                    let y3 = amc.sub(jt);
                    cv_store(dst, base + s + q, y1.mul(w1));
                    let y2 = apc.sub(bpd);
                    cv_store(dst, base + 2 * s + q, y2.mul(w2));
                    cv_store(dst, base + 3 * s + q, y3.mul(w3));
                }
            }
        }
    }

    /// Radix-5 batch stage — the scalar `stage5`, 8 lines per op.
    ///
    /// # Safety
    /// AVX2 and FMA must be available; `src` and `dst` must be distinct
    /// slabs of `n` elements with `5·s` dividing `n`, and `tw` must hold
    /// `4·n/(5·s)` twiddles.
    #[target_feature(enable = "avx2,fma")]
    unsafe fn bstage5(
        src: *const f32,
        dst: *mut f32,
        n: usize,
        s: usize,
        tw: &[Complex32],
        esign: f32,
    ) {
        let n1 = n / (5 * s);
        // SAFETY: with `p < n1` and `q < s`, every element index read
        // (`s·(p + m·n1) + q`, `m < 5`) and written (`5·s·p + j·s + q`,
        // `j < 5`) is below `5·s·n1 = n`.
        unsafe {
            let c51 = F32x8::splat(C51);
            let c52 = F32x8::splat(C52);
            let s51 = F32x8::splat(S51);
            let s52 = F32x8::splat(S52);
            let pk = F32x8::splat(esign);
            let nk = F32x8::splat(-esign);
            for p in 0..n1 {
                let w1 = cw(tw[4 * p]);
                let w2 = cw(tw[4 * p + 1]);
                let w3 = cw(tw[4 * p + 2]);
                let w4 = cw(tw[4 * p + 3]);
                for q in 0..s {
                    let a = cv_load(src, s * p + q);
                    let b = cv_load(src, s * (p + n1) + q);
                    let c = cv_load(src, s * (p + 2 * n1) + q);
                    let d = cv_load(src, s * (p + 3 * n1) + q);
                    let e = cv_load(src, s * (p + 4 * n1) + q);
                    let t1 = b.add(e);
                    let t2 = c.add(d);
                    let t3 = b.sub(e);
                    let t4 = c.sub(d);
                    let m1 = CF32x8 {
                        re: a.re.add(c51.mul(t1.re)).add(c52.mul(t2.re)),
                        im: a.im.add(c51.mul(t1.im)).add(c52.mul(t2.im)),
                    };
                    let m2 = CF32x8 {
                        re: a.re.add(c52.mul(t1.re)).add(c51.mul(t2.re)),
                        im: a.im.add(c52.mul(t1.im)).add(c51.mul(t2.im)),
                    };
                    let u1 = CF32x8 {
                        re: s51.mul(t3.re).add(s52.mul(t4.re)),
                        im: s51.mul(t3.im).add(s52.mul(t4.im)),
                    };
                    let u2 = CF32x8 {
                        re: s52.mul(t3.re).sub(s51.mul(t4.re)),
                        im: s52.mul(t3.im).sub(s51.mul(t4.im)),
                    };
                    let j1 = CF32x8 {
                        re: nk.mul(u1.im),
                        im: pk.mul(u1.re),
                    };
                    let j2 = CF32x8 {
                        re: nk.mul(u2.im),
                        im: pk.mul(u2.re),
                    };
                    let base = 5 * s * p;
                    cv_store(dst, base + q, a.add(t1).add(t2));
                    let y1 = m1.add(j1);
                    let y2 = m2.add(j2);
                    let y3 = m2.sub(j2);
                    let y4 = m1.sub(j1);
                    cv_store(dst, base + s + q, y1.mul(w1));
                    cv_store(dst, base + 2 * s + q, y2.mul(w2));
                    cv_store(dst, base + 3 * s + q, y3.mul(w3));
                    cv_store(dst, base + 4 * s + q, y4.mul(w4));
                }
            }
        }
    }

    /// Runs the planned stages on the slab in `ping`, ping-ponging
    /// with `pong`, and returns the slab that holds the result.
    ///
    /// # Safety
    /// AVX2 and FMA must be available and `ping.len() == pong.len() ==
    /// 16·n` for the plan length `n`.
    #[target_feature(enable = "avx2,fma")]
    unsafe fn run_stages<'a>(
        fft: &Stockham,
        ping: &'a mut [f32],
        pong: &'a mut [f32],
    ) -> &'a [f32] {
        let n = fft.len;
        debug_assert_eq!(ping.len(), 16 * n);
        debug_assert_eq!(pong.len(), 16 * n);
        let mut s = 1usize;
        let mut in_ping = true;
        for stage in &fft.stages {
            let (src, dst) = if in_ping {
                (ping.as_ptr(), pong.as_mut_ptr())
            } else {
                (pong.as_ptr(), ping.as_mut_ptr())
            };
            // SAFETY: the caller guarantees AVX2+FMA and the slab
            // lengths; `ping` and `pong` are distinct `n`-element slabs,
            // and the planned stages have radices whose running product
            // `s·radix` divides `n` with `(radix−1)·n/(s·radix)`
            // twiddles each (see `plan_stages`), which is what each
            // `bstage*` requires.
            unsafe {
                match stage.radix {
                    2 => bstage2(src, dst, s),
                    3 => bstage3(src, dst, n, s, &stage.twiddles, fft.esign),
                    4 => bstage4(src, dst, n, s, &stage.twiddles, fft.esign),
                    5 => bstage5(src, dst, n, s, &stage.twiddles, fft.esign),
                    r => unreachable!("unplanned radix {r}"),
                }
            }
            in_ping = !in_ping;
            s *= stage.radix as usize;
        }
        if in_ping {
            ping
        } else {
            pong
        }
    }

    /// Transforms 8 interleaved lines (`lines.len() == 8·n`) through
    /// the batched stage loop: gather to struct-of-arrays, ping-pong
    /// the stages between the two slabs, scatter back.
    ///
    /// # Safety
    /// AVX2 and FMA must be available (the `use_simd` plan flag
    /// guarantees it was detected at runtime), `lines.len() == 8·n` and
    /// `ping.len() == pong.len() == 16·n` for the plan length `n`.
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn transform_batch(
        fft: &Stockham,
        lines: &mut [Complex32],
        ping: &mut [f32],
        pong: &mut [f32],
    ) {
        let n = fft.len;
        debug_assert_eq!(lines.len(), LANES * n);
        // SAFETY: the caller guarantees AVX2+FMA and the slice lengths
        // each shim and `run_stages` require.
        unsafe {
            soa_gather(lines, ping, n);
            let result = run_stages(fft, ping, pong);
            soa_scatter(result, lines, n);
        }
    }

    /// How one lane group's 16 floats per element are accessed.
    #[derive(Clone, Copy)]
    enum Group {
        /// All 8 lanes: two plain unaligned vectors.
        Full,
        /// Lanes `0..lanes` only, `lanes < 8`: `lo` masks the first
        /// vector (lanes 0–3); `hi` masks the second (lanes 4–7), and
        /// is `None` when `lanes ≤ 4`, so that vector is never touched.
        Masked { lo: __m256i, hi: Option<__m256i> },
    }

    impl Group {
        /// The access pattern of a group of `1 ≤ lanes ≤ 8` lanes.
        ///
        /// # Safety
        /// AVX2 must be available.
        #[inline(always)]
        unsafe fn new(lanes: usize) -> Group {
            if lanes == LANES {
                return Group::Full;
            }
            // SAFETY: the caller guarantees AVX2; no memory is touched.
            unsafe {
                Group::Masked {
                    lo: lanes_below(lanes),
                    hi: if lanes > 4 {
                        Some(lanes_below(lanes - 4))
                    } else {
                        None
                    },
                }
            }
        }
    }

    /// The mask of one 4-lane vector of a group whose lanes `≥ k` are
    /// absent: float `f` belongs to lane `f/2`, and its mask element is
    /// on (all ones) where that lane is below `k`.
    ///
    /// # Safety
    /// AVX2 must be available.
    #[inline(always)]
    unsafe fn lanes_below(k: usize) -> __m256i {
        // SAFETY: the caller guarantees AVX2; no memory is touched.
        unsafe {
            let lane = _mm256_setr_epi32(0, 0, 1, 1, 2, 2, 3, 3);
            _mm256_cmpgt_epi32(_mm256_set1_epi32(k as i32), lane)
        }
    }

    /// Puts the 64-bit pairs of a deinterleaving shuffle in lane order:
    /// `r0 r1 r4 r5 | r2 r3 r6 r7` becomes `r0 … r7`.
    ///
    /// # Safety
    /// AVX2 must be available.
    #[inline(always)]
    unsafe fn pairs_in_order(v: __m256) -> __m256 {
        // SAFETY: the caller guarantees AVX2; no memory is touched.
        unsafe { _mm256_castpd_ps(_mm256_permute4x64_pd(_mm256_castps_pd(v), 0xD8)) }
    }

    /// Loads one element of a lane group — the `lanes` interleaved
    /// complexes at `p` — as an 8-lane struct-of-arrays vector; a
    /// masked group's absent lanes read as zero.
    ///
    /// # Safety
    /// AVX2 must be available and `p` valid for reads of the group's
    /// `2·lanes` floats; a masked load touches no other memory.
    #[inline(always)]
    unsafe fn lanes_load(p: *const f32, group: Group) -> CF32x8 {
        // SAFETY: a full group reads floats `[0, 16)` of `p`; a masked
        // one reads only its lanes' floats, and forms `p + 8` only when
        // lane 4 is present, so that pointer is in bounds too.
        unsafe {
            let (a, b) = match group {
                Group::Full => (_mm256_loadu_ps(p), _mm256_loadu_ps(p.add(8))),
                Group::Masked { lo, hi: Some(hi) } => {
                    (_mm256_maskload_ps(p, lo), _mm256_maskload_ps(p.add(8), hi))
                }
                Group::Masked { lo, hi: None } => (_mm256_maskload_ps(p, lo), _mm256_setzero_ps()),
            };
            // a = r0 i0 r1 i1 | r2 i2 r3 i3, b = r4 i4 r5 i5 | r6 i6 r7 i7;
            // the shuffles pick r0 r1 r4 r5 | r2 r3 r6 r7 (and the same
            // of im), and the 64-bit permute puts the pairs in order
            CF32x8 {
                re: F32x8(pairs_in_order(_mm256_shuffle_ps(a, b, 0x88))),
                im: F32x8(pairs_in_order(_mm256_shuffle_ps(a, b, 0xDD))),
            }
        }
    }

    /// Stores one element of a lane group: the inverse of
    /// [`lanes_load`]. A masked group writes only its lanes.
    ///
    /// # Safety
    /// AVX2 must be available and `p` valid for writes of the group's
    /// `2·lanes` floats; a masked store touches no other memory.
    #[inline(always)]
    unsafe fn lanes_store(p: *mut f32, group: Group, v: CF32x8) {
        // SAFETY: the bounds of `lanes_load`, for writes.
        unsafe {
            // r0 i0 r1 i1 | r4 i4 r5 i5 and r2 i2 r3 i3 | r6 i6 r7 i7,
            // then the 128-bit halves regrouped into lanes 0–3 and 4–7
            let lo = _mm256_unpacklo_ps(v.re.0, v.im.0);
            let hi = _mm256_unpackhi_ps(v.re.0, v.im.0);
            let a = _mm256_permute2f128_ps(lo, hi, 0x20);
            let b = _mm256_permute2f128_ps(lo, hi, 0x31);
            match group {
                Group::Full => {
                    _mm256_storeu_ps(p, a);
                    _mm256_storeu_ps(p.add(8), b);
                }
                Group::Masked { lo, hi } => {
                    _mm256_maskstore_ps(p, lo, a);
                    if let Some(hi) = hi {
                        _mm256_maskstore_ps(p.add(8), hi, b);
                    }
                }
            }
        }
    }

    /// Transforms, in place, the `lanes` lines whose element `t` of line
    /// `l` is `data[start + t·stride + l]`: each element's `lanes`
    /// adjacent complexes load straight into slab element `t`, the
    /// stages run as in [`transform_batch`], and each result element
    /// stores straight back.
    ///
    /// # Safety
    /// AVX2 and FMA must be available, `1 ≤ lanes ≤ min(8, stride)`,
    /// `start + (n−1)·stride + lanes ≤ data.len()` and `ping.len() ==
    /// pong.len() == 16·n` for the plan length `n`.
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn transform_lanes(
        fft: &Stockham,
        data: &mut [Complex32],
        start: usize,
        stride: usize,
        lanes: usize,
        ping: &mut [f32],
        pong: &mut [f32],
    ) {
        let n = fft.len;
        let base = znn_simd::complex_as_floats_mut(data).as_mut_ptr();
        // SAFETY: the caller guarantees AVX2+FMA; element `t < n` of the
        // group is the `lanes` complexes from `start + t·stride`, inside
        // `data` by the caller's bound, and slab element `t` is inside
        // the `16·n`-float `ping` and result slab. Every element is
        // loaded before the stages run and stored after, and
        // `lanes ≤ stride` keeps the groups of different `t` disjoint,
        // so no store overwrites an element not yet loaded.
        unsafe {
            let group = Group::new(lanes);
            for t in 0..n {
                let p = base.add(2 * (start + t * stride));
                cv_store(ping.as_mut_ptr(), t, lanes_load(p, group));
            }
            let result = run_stages(fft, ping, pong);
            for t in 0..n {
                let p = base.add(2 * (start + t * stride));
                lanes_store(p, group, cv_load(result.as_ptr(), t));
            }
        }
    }
}
