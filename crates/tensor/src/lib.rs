//! Dense 3D tensor substrate for the ZNN reproduction.
//!
//! ZNN (Zlateski, Lee, Seung — IPDPS 2016) represents every value flowing
//! through a convolutional network as a dense 3D image of `f32` voxels;
//! 2D images are the special case where one dimension has size one.
//! This crate provides that representation plus the layout/shape algebra
//! the rest of the workspace builds on:
//!
//! * [`Vec3`] — a shape / coordinate triple with the index arithmetic used
//!   by valid/full convolutions, pooling and filtering,
//! * [`Tensor3`] — an owned, contiguous, row-major (`z` fastest) 3D tensor,
//! * padding / cropping / reflection / dilation helpers ([`pad`]),
//! * elementwise kernels used on hot paths ([`ops`]),
//! * axis line iteration used by the FFT's per-axis passes
//!   ([`lines`]),
//! * the pooled-storage contract ([`storage`]): tensors may lease their
//!   buffer from a [`BufferSource`] (implemented by `znn-alloc`'s
//!   recycling pools) and return it on drop — the §VII-C allocator
//!   discipline, invisible to every consumer of the tensor API.
//!
//! Everything here is single-threaded; parallelism lives in `znn-sched`
//! and above. The representation is deliberately simple — a `Vec<T>` plus
//! a [`Vec3`] shape — because ZNN's performance comes from task
//! parallelism and FFT sharing, not from fancy tensor layouts.

#![warn(missing_docs)]

pub mod lines;
pub mod ops;
pub mod pad;
mod shape;
mod spectrum;
pub mod storage;
mod tensor;

pub use shape::Vec3;
pub use spectrum::Spectrum;
pub use storage::BufferSource;
pub use tensor::Tensor3;

/// Complex number type used by the FFT substrate.
pub type Complex32 = num_complex::Complex<f32>;

/// A 3D tensor of single-precision voxels — the image type of the paper.
pub type Image = Tensor3<f32>;

/// A 3D tensor of complex voxels — the frequency-domain image type.
pub type CImage = Tensor3<Complex32>;
