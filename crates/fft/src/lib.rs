//! 3D FFT and frequency-domain convolution machinery (ZNN paper §IV).
//!
//! ZNN chooses per layer between direct and FFT convolution. The FFT
//! path wins for ConvNets earlier than for single convolutions because
//! the transform of an image at a node is **shared** by every edge at
//! that node, and transforms computed in the forward pass are
//! **memoized** for the backward and update passes (Table II). This
//! crate provides the pieces that make that sharing expressible.
//!
//! # Real-to-complex transforms and the half-spectrum layout
//!
//! Every image entering a transform here is *real*, so its DFT is
//! Hermitian: `X[−f] = conj(X[f])`. The engine exploits this the same
//! way FFTW/MKL r2c plans do:
//!
//! * **Storage.** A spectrum is a [`znn_tensor::Spectrum`]: the bins
//!   `0..=⌊m/2⌋` along the *packed axis* (`⌊m/2⌋+1` complex values per
//!   line) plus the logical full shape. The packed axis is the last
//!   non-unit axis — `z` for volumes, `y` for flat `m_z == 1` images —
//!   so 2D workloads get the same halving as 3D ones. The dropped bins
//!   are implied by symmetry. This halves the size of every memoized
//!   spectrum — the paper's main RAM consumer (§IV).
//! * **Compute.** The packed stage turns each even-length real line of
//!   `m` samples into `m/2` complex samples
//!   (`z[t] = x[2t] + i·x[2t+1]`), runs a half-length complex FFT, and
//!   unpacks with one twiddle pass — ~2× fewer FLOPs on that stage. The
//!   remaining stages are complex line transforms over the
//!   already-halved tensor, so they also do half the work of a full
//!   complex transform. The inverse consumes its spectrum: its complex
//!   stages run in place on the spectrum's buffer, and the c2r stage
//!   writes each real line into the output, leased without a zero-fill.
//! * **Padding discipline.** Transform shapes come from
//!   [`good_shape`]: 5-smooth per axis, and *even* on the packed axis
//!   so the packed stage always applies and the
//!   half-spectrum is tight. Odd packed extents still work (a
//!   full-length fallback per line, truncated to the stored bins) —
//!   they are just slower, and `good_shape` avoids them. Unit axes are
//!   never inflated: an extent of 1 stays 1 (identity transform).
//! * **Frequency-domain algebra.** Sums and pointwise products of
//!   real-image spectra are still spectra of real images (Hermitian
//!   symmetry is closed under both), so convergent-edge accumulation,
//!   [`spectra::flip_spectrum`], and [`spectra::corr_spectrum`] all
//!   operate directly on half-spectra at half cost.
//!
//! # Pruned transforms
//!
//! Every operand is zero-padded to its node's transform shape, so most
//! of a padded transform's lines are known to be zero on the way in or
//! are never read on the way out. Each transform knows its box and
//! skips those lines:
//!
//! * **Forward** ([`FftEngine::forward_padded`],
//!   [`spectra::kernel_spectrum`]). The input can be non-zero only on
//!   the source extent, at a per-axis step equal to the kernel's
//!   sparsity. The packed stage reads its lines straight from the
//!   unpadded, undilated source and transforms only the lines whose
//!   other two coordinates lie in that box. The middle axis of a volume
//!   runs only on lines whose leading coordinate is in the box, and the
//!   last axis runs in full. A 5³ kernel padded to 60³ packs 25 of 3600
//!   lines and runs 155 of 1860 middle-axis lines.
//! * **Inverse** ([`FftEngine::inverse_real`],
//!   [`spectra::kernel_gradient_from_corr`]). The output is read only on
//!   the crop, or on the kernel lattice for a kernel gradient. The first
//!   axis runs in full, the middle axis only on the wanted leading
//!   coordinates, and the c2r stage only on the wanted lines. Each c2r
//!   line writes its wanted run straight into the output: the crop, or
//!   the reflected kernel gradient.
//!
//! No padded, dilated, cropped or gathered copy is ever built.
//! [`FftEngine::rfft3`] and [`FftEngine::irfft3`] are the full-box case
//! of the same code.
//!
//! **Contract.** A kept line runs the same butterflies on the same data
//! as the unpruned transform. Every output is therefore `==`-equal to
//! padding (and dilating) the input, running the full transform, then
//! cropping (and gathering and reflecting) the result;
//! `tests/pruned.rs` pins this on random geometries. The one possible
//! difference is the sign of an exact zero: a skipped all-zero line
//! holds the lease's `+0` where butterflies over zeros could produce
//! `−0`. That sign cannot reach a non-zero value downstream, since
//! `x + (±0) = x` for `x ≠ 0` and `±0 · y = ±0` for finite `y`.
//! Pruning never reaches inside a line, because skipping the zero
//! samples of a kept line would change its rounding.
//!
//! # Kernels and threading
//!
//! The 1D line transforms are the [`line`](mod@line) plans, which route
//! **every 5-smooth length** (`2^a·3^b·5^c` — everything
//! [`good_shape`] produces) through **iterative mixed-radix Stockham
//! autosort kernels**: a stage planner factors the length into
//! hardcoded radix-4/3/5 butterflies plus one trailing radix-2 stage
//! for odd `log2` 2-parts, with per-stage twiddle tables and no
//! bit/digit-reversal pass. Only lengths with prime factors larger
//! than 5 — which `good_shape` never emits — take the recursive
//! mixed-radix fallback, whose naive-DFT base case stays cold. A 48³
//! transform (48 = 2⁴·3) and a 64³ transform are therefore both all
//! Stockham.
//!
//! On top of the kernels, [`FftEngine`] runs every transform from
//! start to finish on the thread that calls it. Parallelism lives one
//! level up, in the paper's task graph: each transform is part of one
//! task, and many tasks run at once. Any number of threads may share
//! one engine; each transform works in its own thread's scratch, so
//! concurrent transforms are bit-for-bit equal to serial ones; see the
//! [threading model](FftEngine#threading-model).
//!
//! The staged API (`forward_padded` → pointwise products in
//! `znn_tensor::ops` (`mul_s`, summed with `add_assign_s`) →
//! `inverse_real`) lets callers accumulate convergent convolutions
//! **in the frequency domain** and pay one inverse transform per node
//! rather than one per edge — exactly the `f' + f + f'·f` term
//! structure of Table II.
//!
//! The paper used MKL/fftw; the planned-1D-transform decomposition here
//! replaces them with the same O(n log n) asymptotics and a different
//! constant.

#![warn(missing_docs)]
#![warn(clippy::undocumented_unsafe_blocks)]
#![warn(unreachable_pub)]

mod conv;
mod engine;
pub mod line;
mod size;
pub mod spectra;

pub use conv::{fft_conv_full, fft_conv_valid};
pub use engine::FftEngine;
pub use size::{good_shape, good_size, pow2_shape};

#[cfg(test)]
mod tests;
