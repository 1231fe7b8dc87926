//! Recursive mixed-radix Cooley–Tukey fallback for lengths with prime
//! factors larger than 5.
//!
//! Composite lengths decompose into their prime factors; prime factors
//! fall back to a naive O(p²) DFT. The engine pads transforms to
//! 5-smooth sizes — which all take the iterative Stockham path — so
//! this algorithm is only warm for lengths with prime factors > 5
//! (which `good_shape` never produces). It is also exposed directly
//! via [`LinePlan::recursive`](super::LinePlan::recursive) as the 1D
//! reference the kernel tests and the `fft_kernels` bench compare the
//! Stockham kernels against.

use super::Direction;
use znn_tensor::Complex32;

fn smallest_prime_factor(n: usize) -> usize {
    if n.is_multiple_of(2) {
        return 2;
    }
    let mut p = 3;
    while p * p <= n {
        if n.is_multiple_of(p) {
            return p;
        }
        p += 2;
    }
    n
}

fn largest_prime_factor(mut n: usize) -> usize {
    let mut largest = 1;
    while n > 1 {
        let p = smallest_prime_factor(n);
        largest = largest.max(p);
        while n.is_multiple_of(p) {
            n /= p;
        }
    }
    largest
}

/// Recursive mixed-radix Cooley–Tukey FFT with a per-plan twiddle table.
pub(super) struct MixedRadix {
    len: usize,
    /// `twiddles[t] = e^{sign·2πi·t/len}`, `sign` per direction; the
    /// recursion indexes it modulo `len` at every depth. `len == 0`
    /// keeps the 1-entry table of the degenerate length-0/1 plan.
    twiddles: Vec<Complex32>,
    /// Largest prime factor of `len` (size of the butterfly temp row).
    max_factor: usize,
}

impl MixedRadix {
    pub(super) fn new(len: usize, direction: Direction) -> Self {
        let sign = direction.sign();
        let twiddles = (0..len.max(1))
            .map(|t| {
                let ang = sign * 2.0 * std::f64::consts::PI * t as f64 / len.max(1) as f64;
                Complex32::new(ang.cos() as f32, ang.sin() as f32)
            })
            .collect();
        MixedRadix {
            len,
            twiddles,
            max_factor: largest_prime_factor(len.max(1)),
        }
    }

    /// `dst[s] = Σ_t src[t·stride] · w_n^{st}` for a sub-transform of
    /// size `n = len / tstep`, reading `src` at the given stride.
    ///
    /// Decimation in time: split `n = p·m` on the smallest prime `p`,
    /// recurse on the `p` interleaved sub-sequences, then combine with
    /// `X[k + s·m] = Σ_q (Y_q[k]·w_n^{qk}) · w_p^{qs}`. The combine
    /// reads and writes the same `p` positions `{k + j·m}` per `k`, so a
    /// `p`-element temp row makes it safe in place.
    fn compute(
        &self,
        src: &[Complex32],
        dst: &mut [Complex32],
        stride: usize,
        tstep: usize,
        tmp: &mut [Complex32],
    ) {
        let n = self.len / tstep;
        if n == 1 {
            dst[0] = src[0];
            return;
        }
        let p = smallest_prime_factor(n);
        let m = n / p;
        if m == 1 {
            // prime length: naive DFT from the strided source (src and
            // dst never alias — src is the scratch copy)
            for (s, d) in dst.iter_mut().take(p).enumerate() {
                let mut acc = Complex32::new(0.0, 0.0);
                for q in 0..p {
                    let w = self.twiddles[(q * s * tstep) % self.len];
                    acc += src[q * stride] * w;
                }
                *d = acc;
            }
            return;
        }
        for q in 0..p {
            self.compute(
                &src[q * stride..],
                &mut dst[q * m..(q + 1) * m],
                stride * p,
                tstep * p,
                tmp,
            );
        }
        // combine: X[k + s·m] = Σ_q (Y_q[k]·w_n^{qk}) · w_p^{qs}
        let wp_step = self.len / p;
        for k in 0..m {
            for q in 0..p {
                let w = self.twiddles[(q * k * tstep) % self.len];
                tmp[q] = dst[q * m + k] * w;
            }
            for s in 0..p {
                let mut acc = tmp[0];
                for (q, &t) in tmp.iter().enumerate().take(p).skip(1) {
                    let w = self.twiddles[(q * s * wp_step) % self.len];
                    acc += t * w;
                }
                dst[k + s * m] = acc;
            }
        }
    }

    /// Transforms every `len`-element chunk of `buffer`; `scratch` holds
    /// at least [`MixedRadix::scratch_len`] elements.
    pub(super) fn process(&self, buffer: &mut [Complex32], scratch: &mut [Complex32]) {
        let n = self.len;
        if n <= 1 {
            return;
        }
        assert!(
            buffer.len().is_multiple_of(n),
            "buffer length {} is not a multiple of the FFT length {n}",
            buffer.len()
        );
        let (copy, tmp) = scratch.split_at_mut(n);
        for chunk in buffer.chunks_mut(n) {
            copy.copy_from_slice(chunk);
            self.compute(copy, chunk, 1, 1, tmp);
        }
    }

    pub(super) fn scratch_len(&self) -> usize {
        self.len + self.max_factor
    }
}
