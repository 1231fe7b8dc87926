//! The half-spectrum representation of real-input 3D transforms.
//!
//! The DFT of a real image is Hermitian-symmetric: `X[-f] = conj(X[f])`.
//! Storing only the non-negative frequencies along one axis —
//! `⌊m/2⌋ + 1` bins per line instead of `m` — halves the memory of
//! every spectrum without losing information. [`Spectrum`] pairs that
//! packed tensor with the *logical* full transform shape, so shape
//! agreement between spectra (and the placement of the Nyquist bin) is
//! checked once at construction instead of silently drifting at each
//! pointwise op.
//!
//! The halved axis is the [`Spectrum::packed_axis`]: the *last non-unit
//! axis* of the full shape. For 3D volumes that is `z` (the contiguous
//! axis); for flat 2D workloads (`m_z == 1`) it is `y` — whose lines
//! are contiguous in memory exactly because `z` is unit — so flat
//! shapes get the same memory and FLOP halving as volumes. Because the
//! packed axis is a pure function of the full shape, every consumer
//! (pointwise ops, spectrum identities, caches) agrees on the layout
//! without extra state.

use crate::{CImage, Vec3};

/// A half-spectrum: the stored packed-axis bins `0..=⌊m/2⌋` of the 3D
/// DFT of a real image, plus the logical full transform shape.
///
/// Invariant: `half.shape() == Spectrum::half_shape(full)`. Pointwise
/// frequency-domain ops must only combine spectra with equal `full`
/// shapes — equal *half* shapes are not sufficient, because full
/// packed-axis extents `2h-1` (odd) and `2h-2` (even) pack to the same
/// `h` bins.
#[derive(Clone, PartialEq, Debug)]
pub struct Spectrum {
    half: CImage,
    full: Vec3,
}

impl Spectrum {
    /// The axis along which a real transform of shape `full` stores only
    /// half its bins: the last non-unit axis (`z` for volumes, `y` for
    /// flat `m_z == 1` images, `x` for 1D rows), defaulting to `z` for
    /// the all-unit shape. Lines along this axis are always contiguous,
    /// because every later axis is unit.
    #[inline]
    pub fn packed_axis(full: Vec3) -> usize {
        if full[2] > 1 {
            2
        } else if full[1] > 1 {
            1
        } else if full[0] > 1 {
            0
        } else {
            2
        }
    }

    /// True when the packed-axis extent of `full` is even or unit —
    /// the **fast-path invariant** every transform shape produced by
    /// `znn-fft`'s `good_shape` satisfies.
    ///
    /// An even packed extent `m` is what makes the r2c pipeline pay:
    /// the packed stage runs a *half-length* (`m/2`) complex FFT per
    /// line, and the stored `m/2 + 1` bins are the tight half-spectrum.
    /// Odd extents still round-trip correctly (the engine falls back
    /// to a full-length transform per line, truncated to the stored
    /// bins) but silently forfeit both savings — so shape-producing
    /// call sites that *intend* the fast path should assert this
    /// predicate at construction rather than discover the regression
    /// as a slow, memory-doubled training run. A unit extent is exempt:
    /// a 1-point transform is the identity and is never inflated.
    ///
    /// ```
    /// use znn_tensor::{Spectrum, Vec3};
    /// assert!(Spectrum::packed_axis_is_even(Vec3::new(5, 7, 10)));
    /// assert!(!Spectrum::packed_axis_is_even(Vec3::new(4, 6, 9)));
    /// assert!(Spectrum::packed_axis_is_even(Vec3::one())); // unit exemption
    /// ```
    #[inline]
    pub fn packed_axis_is_even(full: Vec3) -> bool {
        let extent = full[Self::packed_axis(full)];
        extent == 1 || extent.is_multiple_of(2)
    }

    /// The packed shape of a real transform of logical shape `full`:
    /// `⌊m/2⌋ + 1` bins along the [`Spectrum::packed_axis`], full
    /// extents elsewhere.
    #[inline]
    pub fn half_shape(full: Vec3) -> Vec3 {
        let a = Self::packed_axis(full);
        let mut h = full;
        h[a] = full[a] / 2 + 1;
        h
    }

    /// Wraps a packed tensor produced for a transform of shape `full`.
    /// Panics if the tensor's shape is not the half shape of `full`.
    pub fn new(half: CImage, full: Vec3) -> Self {
        assert_eq!(
            half.shape(),
            Self::half_shape(full),
            "half-spectrum shape {} does not match logical shape {full}",
            half.shape()
        );
        Spectrum { half, full }
    }

    /// An all-zero spectrum for a transform of shape `full`.
    pub fn zeros(full: Vec3) -> Self {
        Spectrum {
            half: CImage::zeros(Self::half_shape(full)),
            full,
        }
    }

    /// The logical (full) transform shape.
    #[inline]
    pub fn full_shape(&self) -> Vec3 {
        self.full
    }

    /// The stored half-spectrum tensor.
    #[inline]
    pub fn half(&self) -> &CImage {
        &self.half
    }

    /// Mutable access to the stored half-spectrum tensor.
    #[inline]
    pub fn half_mut(&mut self) -> &mut CImage {
        &mut self.half
    }

    /// Consumes the spectrum, returning the packed tensor.
    #[inline]
    pub fn into_half(self) -> CImage {
        self.half
    }

    /// Number of stored complex bins.
    #[inline]
    pub fn stored_bins(&self) -> usize {
        self.half.len()
    }

    /// Bytes occupied by the stored bins.
    #[inline]
    pub fn stored_bytes(&self) -> usize {
        self.stored_bins() * std::mem::size_of::<crate::Complex32>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn half_shape_counts_nonredundant_bins() {
        assert_eq!(Spectrum::half_shape(Vec3::new(4, 6, 8)), Vec3::new(4, 6, 5));
        assert_eq!(Spectrum::half_shape(Vec3::new(4, 6, 7)), Vec3::new(4, 6, 4));
        // flat shapes pack along y (their contiguous non-unit axis)
        assert_eq!(Spectrum::half_shape(Vec3::new(3, 3, 1)), Vec3::new(3, 2, 1));
        assert_eq!(Spectrum::half_shape(Vec3::new(3, 8, 1)), Vec3::new(3, 5, 1));
        // 1D rows pack along x; all-unit stays unit
        assert_eq!(Spectrum::half_shape(Vec3::new(8, 1, 1)), Vec3::new(5, 1, 1));
        assert_eq!(Spectrum::half_shape(Vec3::one()), Vec3::one());
        assert_eq!(Spectrum::half_shape(Vec3::new(1, 1, 2)), Vec3::new(1, 1, 2));
    }

    #[test]
    fn packed_axis_is_last_non_unit_axis() {
        assert_eq!(Spectrum::packed_axis(Vec3::cube(4)), 2);
        assert_eq!(Spectrum::packed_axis(Vec3::new(4, 6, 1)), 1);
        assert_eq!(Spectrum::packed_axis(Vec3::new(4, 1, 1)), 0);
        assert_eq!(Spectrum::packed_axis(Vec3::new(1, 6, 1)), 1);
        assert_eq!(Spectrum::packed_axis(Vec3::one()), 2);
    }

    #[test]
    fn zeros_has_matching_shapes() {
        let s = Spectrum::zeros(Vec3::new(2, 3, 6));
        assert_eq!(s.full_shape(), Vec3::new(2, 3, 6));
        assert_eq!(s.half().shape(), Vec3::new(2, 3, 4));
        assert_eq!(s.stored_bins(), 24);
        assert_eq!(s.stored_bytes(), 24 * 8);
    }

    #[test]
    #[should_panic(expected = "does not match logical shape")]
    fn rejects_mismatched_half_tensor() {
        let _ = Spectrum::new(CImage::zeros(Vec3::new(2, 3, 6)), Vec3::new(2, 3, 6));
    }

    #[test]
    fn even_and_odd_full_shapes_pack_differently() {
        // 8 -> 5 bins, 9 -> 5 bins: same half shape, different logical
        // shape — exactly why ops must compare full shapes.
        let even = Spectrum::zeros(Vec3::new(1, 1, 8));
        let odd = Spectrum::zeros(Vec3::new(1, 1, 9));
        assert_eq!(even.half().shape(), odd.half().shape());
        assert_ne!(even.full_shape(), odd.full_shape());
    }
}
