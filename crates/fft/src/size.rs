//! Transform-size selection.
//!
//! FFTs here are fastest on sizes whose prime factors are small:
//! [`crate::line`] routes every 5-smooth length (factors 2, 3, 5)
//! through the iterative mixed-radix Stockham kernels, so per-transform
//! cost is monotone-ish in size across the whole 5-smooth lattice. ZNN
//! therefore pads transforms up to the next 5-smooth size — the same
//! policy fftw's `fftw_next_fast_size` uses minus the factor 7, for
//! which the line kernels have no butterfly.
//!
//! # Why 5-smooth beats 2^k-only padding
//!
//! When only power-of-two lengths hit the fast kernels, the tempting
//! policy is to round every axis up to `2^k` (`pow2_size`, kept as
//! the baseline). 5-smooth candidates are much denser — between 64 and
//! 128 alone sit 72, 75, 80, 81, 90, 96, 100, 108, 120, 125 — so
//! [`good_size`] pads strictly less for most extents and never more.
//! The padded-voxel savings compound per axis: a 65³ transform pads to
//! 72³ (373k voxels) instead of 128³ (2.1M voxels) — **5.6× fewer**
//! padded voxels, and every one of them is transformed, multiplied,
//! and (for memoized spectra) held in RAM for a whole training round.
//! `fft_traffic` records the savings for a sweep of shapes in
//! `BENCH_fft.json` under `"padding"`.

use znn_tensor::{Spectrum, Vec3};

/// True when `n` has no prime factor larger than 5.
pub(crate) fn is_smooth(mut n: usize) -> bool {
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

/// The smallest 5-smooth integer `>= n`. `good_size(0) == 1`.
///
/// ```
/// use znn_fft::good_size;
/// assert_eq!(good_size(65), 72);   // 72 = 2³·3², not 128
/// assert_eq!(good_size(48), 48);   // 5-smooth sizes are kept as-is
/// assert_eq!(good_size(101), 108);
/// ```
pub fn good_size(n: usize) -> usize {
    let mut m = n.max(1);
    while !is_smooth(m) {
        m += 1;
    }
    m
}

/// The smallest *even* 5-smooth integer `>= n`, except that `n <= 1`
/// stays `1` (a unit axis is the identity and must not be inflated).
///
/// Used for the packed axis: the r2c packed stage turns an even-length
/// real line into a half-length complex transform, so even extents get
/// the full 2× FLOP saving and the tight `m/2 + 1`-bin spectrum.
///
/// [`good_shape`] pads the packed axis with it:
///
/// ```
/// use znn_fft::good_shape;
/// use znn_tensor::Vec3;
/// // 25 is 5-smooth but odd, so only the packed z axis grows
/// assert_eq!(good_shape(Vec3::cube(25)), Vec3::new(25, 25, 30));
/// assert_eq!(good_shape(Vec3::cube(48)), Vec3::cube(48));
/// // unit axes are never inflated: a flat image packs along y
/// assert_eq!(good_shape(Vec3::new(25, 25, 1)), Vec3::new(25, 30, 1));
/// ```
pub(crate) fn good_size_even(n: usize) -> usize {
    if n <= 1 {
        return 1;
    }
    let mut m = n;
    while !(m.is_multiple_of(2) && is_smooth(m)) {
        m += 1;
    }
    m
}

/// The smallest power of two `>= n` (`n <= 1` stays `1`) — the
/// 2^k-only padding policy. **Baseline only**: every power of two is
/// 5-smooth, so [`good_size`] never pads more than this, and usually
/// pads much less; `pow2_size` exists so benches and regression tests
/// can quote the padded-voxel savings of the 5-smooth policy.
pub(crate) fn pow2_size(n: usize) -> usize {
    if n <= 1 {
        return 1;
    }
    n.next_power_of_two()
}

/// Applies `pow2_size` per axis — the 2^k-only analogue of
/// [`good_shape`], kept as the padding-waste baseline. (A power of two
/// `>= 2` is always even, so no separate packed-axis rule is needed.)
pub fn pow2_shape(s: Vec3) -> Vec3 {
    Vec3::new(pow2_size(s[0]), pow2_size(s[1]), pow2_size(s[2]))
}

/// Applies [`good_size`] per axis, except the packed axis
/// ([`Spectrum::packed_axis`] — `z` for volumes, `y` for flat `m_z == 1`
/// shapes) which gets `good_size_even`, keeping the r2c half-spectrum
/// packing tight on every workload. Padding never inflates a unit axis,
/// so the packed axis of the padded shape matches the input's.
///
/// Every extent this returns is 5-smooth, so every line transform of
/// the padded shape takes the iterative Stockham path of
/// [`LinePlan`](crate::line::LinePlan) — no shape reachable from
/// `good_shape` ever hits the recursive fallback.
///
/// ```
/// use znn_fft::{good_shape, pow2_shape};
/// use znn_tensor::Vec3;
///
/// let padded = good_shape(Vec3::new(65, 65, 65));
/// assert_eq!(padded, Vec3::new(72, 72, 72));
/// // 5.6x fewer padded voxels than the 2^k-only baseline
/// assert_eq!(pow2_shape(Vec3::new(65, 65, 65)), Vec3::new(128, 128, 128));
/// assert!(padded.len() * 5 < pow2_shape(Vec3::new(65, 65, 65)).len());
/// ```
pub fn good_shape(s: Vec3) -> Vec3 {
    let pa = Spectrum::packed_axis(s);
    let mut g = Vec3::new(good_size(s[0]), good_size(s[1]), good_size(s[2]));
    g[pa] = good_size_even(s[pa]);
    g
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_good_sizes_match_known_table() {
        let expect = [1, 1, 2, 3, 4, 5, 6, 8, 8, 9, 10, 12, 12, 15, 15, 15, 16];
        for (n, &e) in expect.iter().enumerate() {
            assert_eq!(good_size(n), e, "good_size({n})");
        }
        assert_eq!(good_size(17), 18);
        assert_eq!(good_size(97), 100);
        assert_eq!(good_size(101), 108);
    }

    #[test]
    fn good_sizes_are_smooth_and_minimal() {
        for n in 1..2000 {
            let g = good_size(n);
            assert!(g >= n && is_smooth(g));
            // minimality: nothing smooth in [n, g)
            for m in n..g {
                assert!(!is_smooth(m));
            }
        }
    }

    #[test]
    fn padding_overhead_is_bounded() {
        // 5-smooth numbers are dense enough that padding never doubles
        // the size for realistic image extents.
        for n in 2..4096 {
            assert!(good_size(n) < 2 * n, "overhead >= 2x at {n}");
        }
    }

    #[test]
    fn good_shape_is_per_axis() {
        assert_eq!(
            good_shape(Vec3::new(7, 11, 1)),
            Vec3::new(8, 12, 1)
        );
    }

    #[test]
    fn good_size_even_prefers_even_z() {
        // odd smooth sizes are skipped on the z axis: 5 -> 6, 9 -> 10,
        // 15 -> 16, 25 -> 27 is odd so -> 30
        assert_eq!(good_size_even(5), 6);
        assert_eq!(good_size_even(9), 10);
        assert_eq!(good_size_even(15), 16);
        assert_eq!(good_size_even(25), 30);
        assert_eq!(good_size_even(8), 8);
        // unit axes stay unit (identity transform, 1-bin spectrum)
        assert_eq!(good_size_even(1), 1);
        assert_eq!(good_size_even(0), 1);
        for n in 2..2048 {
            let g = good_size_even(n);
            assert!(g >= n && is_smooth(g) && g.is_multiple_of(2));
            assert!(g < 2 * n, "even padding overhead >= 2x at {n}");
        }
    }

    #[test]
    fn good_shape_keeps_z_even() {
        assert_eq!(good_shape(Vec3::new(7, 9, 9)), Vec3::new(8, 9, 10));
        assert_eq!(good_shape(Vec3::cube(5)), Vec3::new(5, 5, 6));
    }

    #[test]
    fn good_shape_keeps_the_packed_axis_even_on_flat_shapes() {
        // flat (m_z == 1) shapes pack along y, 1D rows along x — the
        // padded extent there must be even so the r2c packing applies
        assert_eq!(good_shape(Vec3::new(7, 9, 1)), Vec3::new(8, 10, 1));
        assert_eq!(good_shape(Vec3::new(5, 5, 1)), Vec3::new(5, 6, 1));
        assert_eq!(good_shape(Vec3::new(9, 1, 1)), Vec3::new(10, 1, 1));
        // unit axes are never inflated
        assert_eq!(good_shape(Vec3::one()), Vec3::one());
    }

    #[test]
    fn padding_never_increases_vs_the_pow2_only_policy() {
        // regression pin for the 5-smooth policy: per axis and per
        // shape, good_shape pads no more voxels than the 2^k-only
        // baseline ever would (every power of two is itself 5-smooth
        // and even, so the minimal smooth candidate can't overshoot it)
        for n in 0..4096usize {
            assert!(good_size(n) <= pow2_size(n), "good_size({n})");
            assert!(good_size_even(n) <= pow2_size(n), "good_size_even({n})");
        }
        for n in 2..200usize {
            let s = Vec3::cube(n);
            assert!(
                good_shape(s).len() <= pow2_shape(s).len(),
                "padded voxels increased at {s}"
            );
        }
    }

    #[test]
    fn five_smooth_padding_saves_voxels_on_the_bench_sweep() {
        // the acceptance shapes: strictly fewer padded voxels than
        // 2^k-only for most of the fft_traffic sweep, with concrete
        // factors worth quoting
        let strict = [
            (Vec3::cube(33), Vec3::cube(36), Vec3::cube(64)),
            (Vec3::cube(47), Vec3::cube(48), Vec3::cube(64)),
            (Vec3::cube(65), Vec3::cube(72), Vec3::cube(128)),
            (Vec3::cube(100), Vec3::cube(100), Vec3::cube(128)),
            (Vec3::cube(129), Vec3::new(135, 135, 144), Vec3::cube(256)),
        ];
        for (raw, want_smooth, want_pow2) in strict {
            assert_eq!(good_shape(raw), want_smooth, "good_shape({raw})");
            assert_eq!(pow2_shape(raw), want_pow2, "pow2_shape({raw})");
            assert!(
                good_shape(raw).len() < pow2_shape(raw).len(),
                "no strict saving at {raw}"
            );
        }
        // 65³: > 5x fewer padded voxels
        let s = Vec3::cube(65);
        assert!(good_shape(s).len() * 5 < pow2_shape(s).len());
    }
}
