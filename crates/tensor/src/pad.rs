//! Shape-changing tensor transforms: zero padding, cropping, reflection
//! and sparse dilation.
//!
//! These are the building blocks of the convolution variants in §II–IV of
//! the paper: FFT convolution zero-pads to a common transform size and
//! crops the valid/full region afterwards; the backward pass reflects
//! kernels along all three axes; sparse (skip-kernel) convolution dilates
//! kernels by the sparsity factor.

use crate::{Tensor3, Vec3};

/// Zero-pads `t` into a tensor of shape `to`, placing the original at
/// offset `at`. Panics if the source does not fit.
pub fn pad<T: Copy + Default>(t: &Tensor3<T>, to: Vec3, at: Vec3) -> Tensor3<T> {
    let mut out = Tensor3::zeros(to);
    pad_into(t, &mut out, at);
    out
}

/// Copies `t` into the **already zero-filled** tensor `out` at offset
/// `at` — the allocation-free form of [`pad`], used with buffers leased
/// from a pool (pool leases are zeroed). Only the source box is
/// written; voxels outside it are left untouched, so a non-zeroed `out`
/// yields garbage padding.
pub fn pad_into<T: Copy + Default>(t: &Tensor3<T>, out: &mut Tensor3<T>, at: Vec3) {
    let s = t.shape();
    let to = out.shape();
    assert!(
        (s + at).le(to),
        "source {s} at offset {at} does not fit in {to}"
    );
    for x in 0..s[0] {
        for y in 0..s[1] {
            let src = t.z_line(x, y);
            let dst_start = to.offset(Vec3::new(x + at[0], y + at[1], at[2]));
            out.as_mut_slice()[dst_start..dst_start + s[2]].copy_from_slice(src);
        }
    }
}

/// Extracts the box of shape `shape` starting at `at`.
pub fn crop<T: Copy + Default>(t: &Tensor3<T>, at: Vec3, shape: Vec3) -> Tensor3<T> {
    let mut out = Tensor3::zeros(shape);
    crop_into(t, at, &mut out);
    out
}

/// Copies the box of `out`'s shape starting at `at` from `t` into
/// `out` — the allocation-free form of [`crop`] for pooled buffers.
/// Every voxel of `out` is overwritten.
pub fn crop_into<T: Copy + Default>(t: &Tensor3<T>, at: Vec3, out: &mut Tensor3<T>) {
    let s = t.shape();
    let shape = out.shape();
    assert!(
        (at + shape).le(s),
        "crop of {shape} at {at} exceeds source {s}"
    );
    for x in 0..shape[0] {
        for y in 0..shape[1] {
            let src_start = s.offset(Vec3::new(x + at[0], y + at[1], at[2]));
            let src = &t.as_slice()[src_start..src_start + shape[2]];
            out.z_line_mut(x, y).copy_from_slice(src);
        }
    }
}

/// Reflects a tensor along all three axes — the kernel transform of the
/// backward pass ("the kernel is the same, except that it is reflected
/// along all three dimensions", §III-A).
pub fn flip<T: Copy + Default>(t: &Tensor3<T>) -> Tensor3<T> {
    let s = t.shape();
    Tensor3::from_fn(s, |at| {
        t.at(Vec3::new(
            s[0] - 1 - at[0],
            s[1] - 1 - at[1],
            s[2] - 1 - at[2],
        ))
    })
}

/// Dilates a kernel by per-axis sparsity `s`: voxel `(x,y,z)` moves to
/// `(s₀·x, s₁·y, s₂·z)` and the gaps are zero. This converts a sparse
/// convolution into a dense one with a larger kernel, which is how the
/// FFT path implements the paper's skip kernels.
pub fn dilate<T: Copy + Default>(t: &Tensor3<T>, s: Vec3) -> Tensor3<T> {
    assert!(s[0] > 0 && s[1] > 0 && s[2] > 0, "sparsity must be >= 1");
    let out_shape = t.shape().dilated(s);
    let mut out = Tensor3::zeros(out_shape);
    for at in t.shape().iter() {
        out.set(at * s, t.at(at));
    }
    out
}

/// Strided gather: the inverse view of [`dilate`] — picks every
/// `s`-th voxel starting at `at`, producing a tensor of shape `shape`.
/// Sparse training assembles dense outputs from these lattices.
pub fn gather_strided<T: Copy + Default>(
    t: &Tensor3<T>,
    at: Vec3,
    s: Vec3,
    shape: Vec3,
) -> Tensor3<T> {
    let src = t.shape();
    if !shape.is_empty() {
        let last = at + (shape - Vec3::one()) * s;
        assert!(
            last.fits_in(src),
            "strided gather reaches {last} outside {src}"
        );
    }
    Tensor3::from_fn(shape, |o| t.at(at + o * s))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq(shape: Vec3) -> Tensor3<f32> {
        Tensor3::from_fn(shape, |at| shape.offset(at) as f32)
    }

    #[test]
    fn pad_then_crop_round_trips() {
        let t = seq(Vec3::new(2, 3, 4));
        let p = pad(&t, Vec3::new(5, 6, 7), Vec3::new(1, 2, 3));
        assert_eq!(p.at((0, 0, 0)), 0.0);
        assert_eq!(p.at((1, 2, 3)), t.at((0, 0, 0)));
        let c = crop(&p, Vec3::new(1, 2, 3), t.shape());
        assert_eq!(c, t);
    }

    #[test]
    fn pad_preserves_total_sum() {
        let t = seq(Vec3::cube(3));
        let p = pad(&t, Vec3::cube(8), Vec3::new(2, 0, 4));
        assert_eq!(p.sum(), t.sum());
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn pad_rejects_overflow() {
        let t = seq(Vec3::cube(3));
        let _ = pad(&t, Vec3::cube(4), Vec3::cube(2));
    }

    #[test]
    fn flip_is_involutive() {
        let t = seq(Vec3::new(2, 3, 4));
        assert_eq!(flip(&flip(&t)), t);
    }

    #[test]
    fn flip_reverses_all_axes() {
        let t = seq(Vec3::new(2, 2, 2));
        let f = flip(&t);
        assert_eq!(f.at((0, 0, 0)), t.at((1, 1, 1)));
        assert_eq!(f.at((1, 0, 1)), t.at((0, 1, 0)));
    }

    #[test]
    fn dilate_spaces_out_kernel_voxels() {
        let t = seq(Vec3::cube(2));
        let d = dilate(&t, Vec3::cube(3));
        assert_eq!(d.shape(), Vec3::cube(4));
        assert_eq!(d.at((0, 0, 0)), t.at((0, 0, 0)));
        assert_eq!(d.at((3, 3, 3)), t.at((1, 1, 1)));
        assert_eq!(d.at((1, 0, 0)), 0.0);
        // total mass is preserved
        assert_eq!(d.sum(), t.sum());
    }

    #[test]
    fn dilate_by_one_is_identity() {
        let t = seq(Vec3::new(3, 1, 2));
        assert_eq!(dilate(&t, Vec3::one()), t);
    }

    #[test]
    fn gather_inverts_dilate() {
        let t = seq(Vec3::cube(3));
        let d = dilate(&t, Vec3::cube(2));
        let g = gather_strided(&d, Vec3::zero(), Vec3::cube(2), t.shape());
        assert_eq!(g, t);
    }
}
