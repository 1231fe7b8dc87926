//! Planned 1D line transforms: the kernels underneath [`FftEngine`].
//!
//! A [`LinePlan`] transforms every contiguous `len`-element line of a
//! buffer in one call — the engine hands it the packed stage's groups
//! of 8 packed lines — or, on plans with SIMD lines, up to 8 strided
//! lines in place whose elements are adjacent in memory (the engine's
//! strided passes, with the lanes across the packed axis; plans
//! without SIMD lines get those lines gathered instead). It runs one
//! of two algorithms:
//!
//! * **Iterative mixed-radix Stockham autosort** (`stockham`) — the hot
//!   path, used for every 5-smooth length (`2^a·3^b·5^c`, which is
//!   every length [`good_shape`] produces). A stage planner factors the
//!   length into hardcoded radix-4/3/5 butterflies plus one trailing
//!   radix-2 stage for odd `log2` 2-parts, with precomputed per-stage
//!   twiddle tables stored contiguously in inner-loop order, and
//!   ping-pongs between the caller's buffer and the scratch half — no
//!   bit/digit-reversal pass, unit-stride inner loops. Groups of 8
//!   lines run as 8-lane AVX2 vectors where the host has them.
//! * **Recursive mixed-radix Cooley–Tukey** (`recursive`) — the
//!   fallback for lengths with prime factors larger than 5: composite
//!   lengths decompose into their prime factors, prime factors fall
//!   back to a naive O(p²) DFT. [`LinePlan::recursive`] also exposes it
//!   directly as the reference the Stockham kernels are pinned and
//!   benchmarked against.
//!
//! Transforms are unnormalized in both directions (as in FFTW/MKL):
//! `inverse(forward(x)) == len · x`.
//!
//! # Example
//!
//! ```
//! use znn_fft::line::{Direction, LinePlan};
//! use znn_tensor::Complex32;
//!
//! // 48 = 2^4·3 is 5-smooth: planned onto the iterative Stockham path
//! let plan = LinePlan::new(48, Direction::Forward);
//! let mut buffer = vec![Complex32::new(1.0, 0.0); 48];
//! plan.process(&mut buffer);
//! // the DC bin of a constant signal is the total mass
//! assert!((buffer[0].re - 48.0).abs() < 1e-4);
//! assert!(buffer[1].norm() < 1e-4);
//! ```
//!
//! [`FftEngine`]: crate::FftEngine
//! [`good_shape`]: crate::good_shape

mod recursive;
mod stockham;

use recursive::MixedRadix;
use stockham::Stockham;
use znn_tensor::Complex32;

/// Direction of a transform.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Direction {
    /// Forward transform, `e^{-2πi·kt/n}` kernel.
    Forward,
    /// Inverse transform, `e^{+2πi·kt/n}` kernel (unnormalized).
    Inverse,
}

impl Direction {
    /// The sign of the exponent: `-1` forward, `+1` inverse.
    pub(crate) fn sign(self) -> f64 {
        match self {
            Direction::Forward => -1.0,
            Direction::Inverse => 1.0,
        }
    }
}

/// True when `n ≥ 1` has no prime factor larger than 5 — the lengths
/// the iterative Stockham kernels can factor into {4, 3, 5, 2} stages.
pub(crate) fn is_5_smooth(mut n: usize) -> bool {
    if n == 0 {
        return false;
    }
    for p in [2usize, 3, 5] {
        while n.is_multiple_of(p) {
            n /= p;
        }
    }
    n == 1
}

/// A planned 1D FFT of one length and direction.
pub struct LinePlan(Kernel);

enum Kernel {
    Stockham(Stockham),
    MixedRadix(MixedRadix),
}

impl LinePlan {
    /// Plans the fastest transform for `len`: the Stockham kernels for
    /// every 5-smooth length, the recursive fallback otherwise.
    pub fn new(len: usize, direction: Direction) -> Self {
        Self::smooth_or_recursive(len, direction, true)
    }

    /// Plans like [`LinePlan::new`] but with the Stockham kernels
    /// pinned to their scalar per-line path even when the host has
    /// AVX2. Output is bitwise identical either way; this is the
    /// oracle of the bitwise SIMD pins and the scalar side of the SIMD
    /// benches.
    pub fn scalar(len: usize, direction: Direction) -> Self {
        Self::smooth_or_recursive(len, direction, false)
    }

    fn smooth_or_recursive(len: usize, direction: Direction, allow_simd: bool) -> Self {
        if len >= 2 && is_5_smooth(len) {
            LinePlan(Kernel::Stockham(Stockham::new(len, direction, allow_simd)))
        } else {
            Self::recursive(len, direction)
        }
    }

    /// Plans the recursive mixed-radix transform regardless of length:
    /// the reference the kernel tests pin the Stockham kernels against,
    /// and the baseline of the `fft_kernels` bench.
    pub fn recursive(len: usize, direction: Direction) -> Self {
        LinePlan(Kernel::MixedRadix(MixedRadix::new(len, direction)))
    }

    /// Scratch elements [`LinePlan::process_with_scratch`] needs.
    pub fn scratch_len(&self) -> usize {
        match &self.0 {
            Kernel::Stockham(k) => k.scratch_len(),
            Kernel::MixedRadix(k) => k.scratch_len(),
        }
    }

    /// Transforms every contiguous line of `buffer` in place, using
    /// `scratch` (at least [`LinePlan::scratch_len`] elements).
    ///
    /// # Panics
    /// If `buffer.len()` is not a multiple of the planned length, or
    /// `scratch` is too small.
    pub fn process_with_scratch(&self, buffer: &mut [Complex32], scratch: &mut [Complex32]) {
        assert!(
            scratch.len() >= self.scratch_len(),
            "scratch too small: {} < {}",
            scratch.len(),
            self.scratch_len()
        );
        match &self.0 {
            Kernel::Stockham(k) => k.process(buffer, scratch),
            Kernel::MixedRadix(k) => k.process(buffer, scratch),
        }
    }

    /// True when [`LinePlan::process_lanes`] runs: a Stockham plan on
    /// its batched SIMD path. Scalar-pinned plans, non-AVX2 hosts and
    /// the recursive fallback have no lane kernel.
    pub(crate) fn has_lanes(&self) -> bool {
        matches!(&self.0, Kernel::Stockham(k) if k.has_lanes())
    }

    /// Transforms, in place, the `lanes` lines (`1 ≤ lanes ≤ 8`) whose
    /// element `t` of line `l` is `data[start + t·stride + l]`, using
    /// `scratch` (at least [`LinePlan::scratch_len`] elements). Output
    /// is bitwise identical to gathering each line and transforming it
    /// with [`LinePlan::process_with_scratch`].
    ///
    /// # Panics
    /// If the plan has no lane kernel ([`LinePlan::has_lanes`]), if
    /// `lanes` exceeds 8 or `stride`, if the group reaches past `data`,
    /// or if `scratch` is too small.
    pub(crate) fn process_lanes(
        &self,
        data: &mut [Complex32],
        start: usize,
        stride: usize,
        lanes: usize,
        scratch: &mut [Complex32],
    ) {
        assert!(
            scratch.len() >= self.scratch_len(),
            "scratch too small: {} < {}",
            scratch.len(),
            self.scratch_len()
        );
        match &self.0 {
            #[cfg(target_arch = "x86_64")]
            Kernel::Stockham(k) => k.process_lanes(data, start, stride, lanes, scratch),
            _ => panic!("process_lanes on a plan without a lane kernel"),
        }
    }

    /// Transforms with internally allocated scratch.
    pub fn process(&self, buffer: &mut [Complex32]) {
        let mut scratch = vec![Complex32::new(0.0, 0.0); self.scratch_len()];
        self.process_with_scratch(buffer, &mut scratch);
    }
}
