use std::fmt;
use std::ops::{Add, Index, IndexMut, Mul, Sub};

/// A triple of non-negative extents or coordinates.
///
/// `Vec3` doubles as a tensor *shape* and a voxel *coordinate*. Axis 0 is
/// the slowest-varying dimension, axis 2 the fastest (the `z` axis of the
/// `[x][y][z]` layout). The arithmetic here encodes the size algebra of
/// the paper's §II:
///
/// * valid convolution: `n → n - k + 1` ([`Vec3::valid_conv`]),
/// * full convolution: `n → n + k - 1` ([`Vec3::full_conv`]),
/// * sparse (dilated) kernels: `k → s·(k-1) + 1` ([`Vec3::dilated`]),
/// * max-pooling: `n → n / p` ([`Vec3::pooled`]).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Vec3(pub [usize; 3]);

impl Vec3 {
    /// Builds a triple from its three extents.
    #[inline]
    pub const fn new(x: usize, y: usize, z: usize) -> Self {
        Vec3([x, y, z])
    }

    /// The cube `(s, s, s)`.
    #[inline]
    pub const fn cube(s: usize) -> Self {
        Vec3([s, s, s])
    }

    /// The triple `(1, 1, 1)` — the shape of a single voxel.
    #[inline]
    pub const fn one() -> Self {
        Vec3([1, 1, 1])
    }

    /// The triple `(0, 0, 0)`.
    #[inline]
    pub const fn zero() -> Self {
        Vec3([0, 0, 0])
    }

    /// A 2D shape, i.e. a 3D shape whose leading dimension is one — the
    /// paper treats 2D networks exactly this way.
    #[inline]
    pub const fn flat(y: usize, z: usize) -> Self {
        Vec3([1, y, z])
    }

    /// Number of voxels in a tensor with this shape.
    #[inline]
    pub fn len(&self) -> usize {
        self.0[0] * self.0[1] * self.0[2]
    }

    /// True when any extent is zero (an empty tensor).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.0.contains(&0)
    }

    /// Row-major (z fastest) linear offset of coordinate `at` within this
    /// shape. Callers must keep `at` inside the shape.
    #[inline]
    pub fn offset(&self, at: Vec3) -> usize {
        debug_assert!(at.fits_in(*self), "coordinate {at} out of shape {self}");
        (at.0[0] * self.0[1] + at.0[1]) * self.0[2] + at.0[2]
    }

    /// True when `self`, as a coordinate, addresses a voxel of `shape`.
    #[inline]
    pub(crate) fn fits_in(&self, shape: Vec3) -> bool {
        self.0[0] < shape.0[0] && self.0[1] < shape.0[1] && self.0[2] < shape.0[2]
    }

    /// True when every extent of `self` is `<=` the matching extent of
    /// `other` — i.e. a kernel of this shape fits inside an image of shape
    /// `other` for a valid convolution.
    #[inline]
    pub fn le(&self, other: Vec3) -> bool {
        self.0[0] <= other.0[0] && self.0[1] <= other.0[1] && self.0[2] <= other.0[2]
    }

    /// Output shape of a *valid* convolution of an image of this shape
    /// with a kernel of shape `k`: `n - k + 1` per axis (paper §II).
    ///
    /// Returns `None` when the kernel does not fit.
    #[inline]
    pub fn valid_conv(&self, k: Vec3) -> Option<Vec3> {
        if k.le(*self) {
            Some(Vec3([
                self.0[0] - k.0[0] + 1,
                self.0[1] - k.0[1] + 1,
                self.0[2] - k.0[2] + 1,
            ]))
        } else {
            None
        }
    }

    /// Output shape of a *full* convolution: `n + (k - 1)` per axis
    /// (paper §III-A, "Convolution Jacobian"). Grouped so no
    /// intermediate exceeds the result.
    #[inline]
    pub fn full_conv(&self, k: Vec3) -> Vec3 {
        Vec3([
            self.0[0] + (k.0[0] - 1),
            self.0[1] + (k.0[1] - 1),
            self.0[2] + (k.0[2] - 1),
        ])
    }

    /// Effective shape of this kernel dilated by per-axis sparsity `s`
    /// (the paper's sparse/skip-kernel convolution): `s·(k-1) + 1`.
    #[inline]
    pub fn dilated(&self, s: Vec3) -> Vec3 {
        Vec3([
            s.0[0] * (self.0[0] - 1) + 1,
            s.0[1] * (self.0[1] - 1) + 1,
            s.0[2] * (self.0[2] - 1) + 1,
        ])
    }

    /// Output shape of max-pooling with block shape `p`; the paper
    /// requires each extent to be divisible by the block extent.
    ///
    /// Returns `None` on indivisible shapes.
    #[inline]
    pub fn pooled(&self, p: Vec3) -> Option<Vec3> {
        if p.0.contains(&0) {
            return None;
        }
        if self.0[0].is_multiple_of(p.0[0]) && self.0[1].is_multiple_of(p.0[1]) && self.0[2].is_multiple_of(p.0[2]) {
            Some(Vec3([
                self.0[0] / p.0[0],
                self.0[1] / p.0[1],
                self.0[2] / p.0[2],
            ]))
        } else {
            None
        }
    }

    /// Elementwise maximum.
    #[inline]
    pub fn max(&self, other: Vec3) -> Vec3 {
        Vec3([
            self.0[0].max(other.0[0]),
            self.0[1].max(other.0[1]),
            self.0[2].max(other.0[2]),
        ])
    }

    /// Elementwise minimum.
    #[inline]
    pub fn min(&self, other: Vec3) -> Vec3 {
        Vec3([
            self.0[0].min(other.0[0]),
            self.0[1].min(other.0[1]),
            self.0[2].min(other.0[2]),
        ])
    }

    /// Iterates coordinates in row-major order (z fastest).
    pub fn iter(&self) -> impl Iterator<Item = Vec3> + '_ {
        let s = *self;
        (0..s.0[0]).flat_map(move |x| {
            (0..s.0[1]).flat_map(move |y| (0..s.0[2]).map(move |z| Vec3([x, y, z])))
        })
    }
}

impl Index<usize> for Vec3 {
    type Output = usize;
    #[inline]
    fn index(&self, i: usize) -> &usize {
        &self.0[i]
    }
}

impl IndexMut<usize> for Vec3 {
    #[inline]
    fn index_mut(&mut self, i: usize) -> &mut usize {
        &mut self.0[i]
    }
}

impl Add for Vec3 {
    type Output = Vec3;
    #[inline]
    fn add(self, o: Vec3) -> Vec3 {
        Vec3([self.0[0] + o.0[0], self.0[1] + o.0[1], self.0[2] + o.0[2]])
    }
}

impl Sub for Vec3 {
    type Output = Vec3;
    #[inline]
    fn sub(self, o: Vec3) -> Vec3 {
        Vec3([self.0[0] - o.0[0], self.0[1] - o.0[1], self.0[2] - o.0[2]])
    }
}

impl Mul for Vec3 {
    type Output = Vec3;
    #[inline]
    fn mul(self, o: Vec3) -> Vec3 {
        Vec3([self.0[0] * o.0[0], self.0[1] * o.0[1], self.0[2] * o.0[2]])
    }
}

impl Mul<usize> for Vec3 {
    type Output = Vec3;
    #[inline]
    fn mul(self, s: usize) -> Vec3 {
        Vec3([self.0[0] * s, self.0[1] * s, self.0[2] * s])
    }
}

impl From<[usize; 3]> for Vec3 {
    #[inline]
    fn from(v: [usize; 3]) -> Self {
        Vec3(v)
    }
}

impl From<(usize, usize, usize)> for Vec3 {
    #[inline]
    fn from((x, y, z): (usize, usize, usize)) -> Self {
        Vec3([x, y, z])
    }
}

impl fmt::Debug for Vec3 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}x{}x{}", self.0[0], self.0[1], self.0[2])
    }
}

impl fmt::Display for Vec3 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn offsets_are_row_major_z_fastest() {
        let s = Vec3::new(2, 3, 4);
        assert_eq!(s.offset(Vec3::zero()), 0);
        assert_eq!(s.offset(Vec3::new(0, 0, 1)), 1);
        assert_eq!(s.offset(Vec3::new(0, 1, 0)), 4);
        assert_eq!(s.offset(Vec3::new(1, 0, 0)), 12);
        assert_eq!(s.offset(Vec3::new(1, 2, 3)), 23);
    }

    #[test]
    fn valid_conv_shrinks_and_checks_fit() {
        let n = Vec3::cube(9);
        assert_eq!(n.valid_conv(Vec3::cube(3)), Some(Vec3::cube(7)));
        assert_eq!(n.valid_conv(Vec3::cube(9)), Some(Vec3::one()));
        assert_eq!(n.valid_conv(Vec3::cube(10)), None);
    }

    #[test]
    fn full_conv_grows() {
        assert_eq!(Vec3::cube(7).full_conv(Vec3::cube(3)), Vec3::cube(9));
        // full then valid with the same kernel round-trips the shape
        let n = Vec3::new(4, 5, 6);
        let k = Vec3::new(2, 3, 1);
        assert_eq!(n.full_conv(k).valid_conv(k), Some(n));
    }

    #[test]
    fn dilation_matches_paper_formula() {
        // sparsity s makes a kernel of size k span s(k-1)+1 voxels
        assert_eq!(Vec3::cube(3).dilated(Vec3::cube(2)), Vec3::cube(5));
        assert_eq!(Vec3::cube(3).dilated(Vec3::one()), Vec3::cube(3));
        assert_eq!(Vec3::one().dilated(Vec3::cube(7)), Vec3::one());
    }

    #[test]
    fn pooling_requires_divisibility() {
        assert_eq!(Vec3::cube(8).pooled(Vec3::cube(2)), Some(Vec3::cube(4)));
        assert_eq!(Vec3::cube(9).pooled(Vec3::cube(2)), None);
        assert_eq!(Vec3::cube(8).pooled(Vec3::zero()), None);
    }

    #[test]
    fn iter_visits_every_coordinate_in_layout_order() {
        let s = Vec3::new(2, 2, 2);
        let coords: Vec<_> = s.iter().collect();
        assert_eq!(coords.len(), 8);
        for (i, c) in coords.iter().enumerate() {
            assert_eq!(s.offset(*c), i);
        }
    }

    #[test]
    fn two_d_shapes_are_3d_with_unit_axis() {
        let s = Vec3::flat(48, 48);
        assert_eq!(s.len(), 48 * 48);
        assert_eq!(s.valid_conv(Vec3::flat(11, 11)), Some(Vec3::flat(38, 38)));
    }
}
