//! Direct (spatial-domain) convolution and its gradients.
//!
//! Conventions (matching the paper and MATLAB):
//!
//! * **valid** true convolution of an `n` image with a `k` kernel yields
//!   `n − s·(k−1)` voxels at sparsity `s` (the kernel is reflected),
//! * **full** true convolution yields `n + s·(k−1)` voxels,
//! * the **kernel gradient** of a valid convolution is itself a valid
//!   convolution of the reflected input with the output gradient
//!   (§III-B), restricted to the kernel lattice when sparse.
//!
//! Every pass walks output rows along the contiguous `z` axis and
//! makes one dispatched `znn-simd` call for the whole pass:
//!
//! * **forward** ([`conv_valid_into`]) — one tap list shared by every
//!   output row, run by [`znn_simd::fma_taps_f`], which keeps a row (or
//!   a block of rows) in vector registers across all of its taps.
//!   Bit contract: each output element is the same `fma` chain, in
//!   `(ux, uy, uz)` tap order with zero taps skipped, as one
//!   [`znn_simd::fma_acc_f`] call per (row, tap) — bitwise.
//! * **input gradient** ([`input_gradient_into`]) — the full
//!   convolution with the reflected kernel in gather form: each output
//!   row applies only the x/y kernel rows that land inside the output
//!   gradient, over a copy of it with a zero halo along `z` only, on
//!   the same row kernel. Bit contract: equal under `==` to the valid
//!   convolution of the fully padded gradient with the flipped kernel;
//!   the dropped taps only ever added exact zeros, so at most the sign
//!   of a zero can differ.
//! * **kernel gradient** ([`kernel_gradient`]) — one f64 dot per tap
//!   over the forward's output rows: the input is widened to f64 once
//!   per call (exactly), and [`znn_simd::dot_taps_f64`] accumulates the
//!   exact products in eight f64 lanes, rounded to f32 once. Bit
//!   contract: the f64 accumulation of exact products; only the
//!   association differs from a sequential sum, so results stay within
//!   1 f32 ulp of it.
//!
//! The `znn-simd` bodies (AVX-512F, AVX2+FMA, scalar twin) are bitwise
//! identical to each other, so none of this depends on the host.
//!
//! # Geometry and scratch
//!
//! Everything but the weights depends only on the input shape, the
//! kernel shape and the sparsity: the tap offsets, the input
//! gradient's x/y tap-range classes and its tap lists, and the output
//! row tables (one shared by the forward and the kernel gradient). A
//! [`DirectConv`] computes them once; the training engine builds one
//! per distinct geometry when it is constructed and shares it across
//! that layer's edges. A call only gathers the weights into the tap
//! list, skipping zero taps as before; when a kernel has a zero
//! weight, that call re-resolves the rows' tap-list bounds in scratch
//! (the precomputed bounds count every tap). The free functions
//! ([`conv_valid_into`], [`input_gradient_into`], [`kernel_gradient`])
//! build the same tables and run the same code, so every caller gets
//! the same bits.
//!
//! The per-call buffers — the gathered taps, re-resolved rows, the
//! input gradient's z-halo copy of `g` and the kernel gradient's
//! widened input — are one set per thread, borrowed for the whole pass
//! by `DirectConv`'s methods and the free functions alike. A set keeps
//! the largest sizes it has served, `g.x·g.y·(g.z + 2·s.z·(k.z−1))`
//! f32s of halo and `|x|` f64s of widened input, and lives as long as
//! its thread, so in steady state no pass allocates anything that grows
//! with the row count. Every buffer is fully overwritten before it is
//! read, so no output bit depends on which thread runs a pass or on
//! what an earlier pass, even one that panicked, left there.

use std::cell::RefCell;
use znn_simd::{Tap, TapRow};
use znn_tensor::{Image, Tensor3, Vec3};

/// Convolution algorithm selector: the direct loops of this module, or
/// the FFT path of `znn_fft` (§IV). Chosen per conv edge by the plan
/// the engines execute.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum ConvMethod {
    /// Direct spatial loops (O(n′³·k³)).
    #[default]
    Direct,
    /// FFT-based (O(n³ log n)).
    Fft,
}

/// Checks an image/kernel/sparsity combination and returns the valid
/// output shape `n − s·(k−1)`.
pub fn valid_shape(n: Vec3, k: Vec3, s: Vec3) -> Option<Vec3> {
    n.valid_conv(k.dilated(s))
}

/// The valid output shape, or a panic naming the misfit.
fn fitted(n: Vec3, k: Vec3, s: Vec3) -> Vec3 {
    valid_shape(n, k, s)
        .unwrap_or_else(|| panic!("kernel {k} at sparsity {s} larger than image {n}"))
}

/// The buffers one direct pass borrows.
#[derive(Default)]
struct Buffers {
    list: TapList,
    /// The input gradient's z-haloed copy of `g`.
    halo: Vec<f32>,
    /// The kernel gradient's input, widened to f64.
    wide: Vec<f64>,
}

/// One call's tap list and, when it skipped zero taps, its rows.
#[derive(Default)]
struct TapList {
    taps: Vec<Tap>,
    /// `kept[i]`: taps kept among the first `i` of the full list.
    kept: Vec<usize>,
    rows: Vec<TapRow>,
}

impl TapList {
    /// Gathers the weights of `taps`, `(index into w, offset)` pairs,
    /// skipping zero weights, and returns the tap list with the rows to
    /// run it on: `rows` itself when no weight is zero, else a copy
    /// whose bounds count only the kept taps. `rows` index the full
    /// list.
    fn gather<'a>(
        &'a mut self,
        w: &[f32],
        taps: impl Iterator<Item = (usize, usize)>,
        rows: &'a [TapRow],
    ) -> (&'a [Tap], &'a [TapRow]) {
        self.taps.clear();
        if !w.contains(&0.0) {
            self.taps.extend(taps.map(|(i, off)| Tap { off, w: w[i] }));
            return (&self.taps, rows);
        }
        self.kept.clear();
        self.kept.push(0);
        for (i, off) in taps {
            if w[i] != 0.0 {
                self.taps.push(Tap { off, w: w[i] });
            }
            self.kept.push(self.taps.len());
        }
        let kept = &self.kept;
        self.rows.clear();
        self.rows.extend(rows.iter().map(|r| TapRow {
            first: kept[r.first],
            end: kept[r.end],
            ..*r
        }));
        (&self.taps, &self.rows)
    }
}

thread_local! {
    /// This thread's direct-pass buffers (see the module docs). A pass
    /// borrows them from start to finish and runs no other pass inside,
    /// so the borrow never nests; a pass that panics releases them as
    /// it unwinds.
    static SCRATCH: RefCell<Buffers> = RefCell::default();
}

/// Runs `f` on this thread's direct-pass buffers.
fn with_scratch<R>(f: impl FnOnce(&mut Buffers) -> R) -> R {
    SCRATCH.with(|b| f(&mut b.borrow_mut()))
}

/// The valid-convolution walk shared by the forward and the kernel
/// gradient: both run over the same output rows at the same input
/// bases.
struct ValidRows {
    out: Vec3,
    /// Input offset of reflected tap `u`, in `(ux, uy, uz)` order. Its
    /// forward weight is `ker[k−1−u]`, which is `ker` read backwards.
    offs: Vec<usize>,
    /// One per output row: `dst` in the output (or output gradient),
    /// `src` the input base, over all taps.
    rows: Vec<TapRow>,
}

impl ValidRows {
    fn new(n: Vec3, k: Vec3, s: Vec3) -> Self {
        let out = fitted(n, k, s);
        let (iy_stride, ix_stride) = (n[2], n[1] * n[2]);
        // out[o] = Σ_t ker[t] · img[o + (k−1−t)·s]  (true convolution).
        // Substituting u = k−1−t: weight is the reflected kernel at u and
        // the input offset is o + u·s. As the output z index advances by
        // one so does the input index (sparsity dilates the kernel, not
        // the output walk), so every tap is a contiguous run at a fixed
        // offset from the output row's input base — one tap list serves
        // every row.
        let offs = k
            .iter()
            .map(|u| u[0] * s[0] * ix_stride + u[1] * s[1] * iy_stride + u[2] * s[2])
            .collect();
        let rows = (0..out[0])
            .flat_map(|ox| (0..out[1]).map(move |oy| (ox, oy)))
            .map(|(ox, oy)| TapRow {
                dst: out.offset(Vec3::new(ox, oy, 0)),
                src: ox * ix_stride + oy * iy_stride,
                first: 0,
                end: k.len(),
            })
            .collect();
        ValidRows { out, offs, rows }
    }

    fn forward(&self, img: &Image, ker: &Image, out: &mut Image, b: &mut Buffers) {
        assert_eq!(out.shape(), self.out, "conv_valid_into output shape");
        let last = self.offs.len() - 1;
        let taps = self.offs.iter().enumerate().map(|(u, &off)| (last - u, off));
        let (taps, rows) = b.list.gather(ker.as_slice(), taps, &self.rows);
        znn_simd::fma_taps_f(out.as_mut_slice(), img.as_slice(), self.out[2], taps, rows);
    }

    fn kernel_gradient(&self, x: &Image, g: &Image, k: Vec3, b: &mut Buffers) -> Image {
        let out = self.out;
        assert_eq!(
            g.shape(),
            out,
            "output gradient shape {} does not match valid shape {out}",
            g.shape()
        );
        b.wide.clear();
        b.wide.extend(x.as_slice().iter().map(|&v| f64::from(v)));
        // the dot runs the taps in `u` order; tap `u` is kernel index
        // `k−1−u`, so the sums land in the gradient reversed
        let mut acc = vec![0.0f64; self.offs.len()];
        znn_simd::dot_taps_f64(&mut acc, g.as_slice(), &b.wide, out[2], &self.rows, &self.offs);
        Tensor3::from_vec(k, acc.iter().rev().map(|&a| a as f32).collect())
    }
}

/// The input gradient's gather-form walk: every tap list and output row
/// of the full convolution, over all taps.
struct FullRows {
    /// `s·(k−1)`: the full convolution's margin.
    m: Vec3,
    /// `(kernel index, offset into the z-haloed gradient)` of every tap
    /// of every (x range, y range) class, lists concatenated.
    taps: Vec<(usize, usize)>,
    /// One per output row that has taps, bounded in `taps`.
    rows: Vec<TapRow>,
}

impl FullRows {
    /// The walk for an output gradient `gs` and kernel `k` at sparsity
    /// `s`.
    fn new(gs: Vec3, k: Vec3, s: Vec3) -> Self {
        let m = (k - Vec3::one()) * s;
        let n = gs + m;
        let zp = gs[2] + 2 * m[2];
        let (y_stride, x_stride) = (zp, gs[1] * zp);

        // The full convolution is a valid convolution of g padded by m
        // with the reflected kernel, whose weight at u is ker[u]: output
        // o reads padded g at o + u·s, i.e. g at o + u·s − m. Along x
        // (and y) the taps that land inside g form one range u ∈ lo..hi
        // per output coordinate; rows that share both ranges share one
        // tap list.
        let (xr, xi) = tap_ranges(n[0], gs[0], k[0], s[0]);
        let (yr, yi) = tap_ranges(n[1], gs[1], k[1], s[1]);
        let mut taps = Vec::new();
        let mut lists = Vec::with_capacity(xr.len() * yr.len());
        for &(ax, bx) in &xr {
            for &(ay, by) in &yr {
                let first = taps.len();
                for ux in ax..bx {
                    for uy in ay..by {
                        for uz in 0..k[2] {
                            let off = (ux - ax) * s[0] * x_stride
                                + (uy - ay) * s[1] * y_stride
                                + uz * s[2];
                            taps.push((k.offset(Vec3::new(ux, uy, uz)), off));
                        }
                    }
                }
                lists.push((first, taps.len()));
            }
        }
        let mut rows = Vec::with_capacity(n[0] * n[1]);
        for ox in 0..n[0] {
            let (ax, bx) = xr[xi[ox]];
            for oy in 0..n[1] {
                let (ay, by) = yr[yi[oy]];
                if ax == bx || ay == by {
                    continue; // only halo taps: the row stays zero
                }
                let (first, end) = lists[xi[ox] * yr.len() + yi[oy]];
                rows.push(TapRow {
                    dst: (ox * n[1] + oy) * n[2],
                    src: (ox + ax * s[0] - m[0]) * x_stride + (oy + ay * s[1] - m[1]) * y_stride,
                    first,
                    end,
                });
            }
        }
        // rows that share a tap list run next to each other, so the row
        // kernel blocks them in registers; each output element still
        // gets the same fma chain
        rows.sort_by_key(|r| r.first);
        FullRows { m, taps, rows }
    }

    fn run(&self, g: &Image, ker: &Image, out: &mut Image, b: &mut Buffers) {
        let gs = g.shape();
        let n = gs + self.m;
        assert_eq!(out.shape(), n, "input_gradient_into output shape");
        let (mz, gz) = (self.m[2], gs[2]);
        let src = if mz == 0 {
            g.as_slice()
        } else {
            // every element is written below, whatever the set last held
            let zp = gz + 2 * mz;
            b.halo.truncate(gs[0] * gs[1] * zp);
            b.halo.resize(gs[0] * gs[1] * zp, 0.0);
            for (h, row) in b.halo.chunks_exact_mut(zp).zip(g.as_slice().chunks_exact(gz)) {
                h[..mz].fill(0.0);
                h[mz..mz + gz].copy_from_slice(row);
                h[mz + gz..].fill(0.0);
            }
            &b.halo[..]
        };
        let (taps, rows) = b.list.gather(ker.as_slice(), self.taps.iter().copied(), &self.rows);
        znn_simd::fma_taps_f(out.as_mut_slice(), src, n[2], taps, rows);
    }
}

/// The tables of one direct conv edge — input shape, kernel shape and
/// sparsity — for all three passes, computed once (see the module
/// docs). Shareable across threads and across every edge with the same
/// geometry; each call takes its weights and images as arguments and
/// works in its thread's buffers.
pub struct DirectConv {
    n: Vec3,
    k: Vec3,
    valid: ValidRows,
    full: FullRows,
}

impl DirectConv {
    /// The tables for an `n` input, a `k` kernel and sparsity `s`.
    /// Panics when the dilated kernel does not fit in the input.
    pub fn new(n: Vec3, k: Vec3, s: Vec3) -> Self {
        let valid = ValidRows::new(n, k, s);
        let full = FullRows::new(valid.out, k, s);
        DirectConv { n, k, valid, full }
    }

    /// The forward output (and output gradient) shape `n − s·(k−1)`.
    pub fn output_shape(&self) -> Vec3 {
        self.valid.out
    }

    /// [`conv_valid_into`] on these tables: `out` is zero-filled and of
    /// the output shape.
    pub fn forward_into(&self, img: &Image, ker: &Image, out: &mut Image) {
        assert_eq!((img.shape(), ker.shape()), (self.n, self.k), "input and kernel shapes");
        with_scratch(|b| self.valid.forward(img, ker, out, b));
    }

    /// [`input_gradient_into`] on these tables: `out` is zero-filled and
    /// of the input shape.
    pub fn input_gradient_into(&self, g: &Image, ker: &Image, out: &mut Image) {
        let shapes = (g.shape(), ker.shape());
        assert_eq!(shapes, (self.valid.out, self.k), "output gradient and kernel shapes");
        with_scratch(|b| self.full.run(g, ker, out, b));
    }

    /// [`kernel_gradient`] on these tables.
    pub fn kernel_gradient(&self, x: &Image, g: &Image) -> Image {
        assert_eq!(x.shape(), self.n, "input shape");
        with_scratch(|b| self.valid.kernel_gradient(x, g, self.k, b))
    }
}

/// Valid true convolution with per-axis sparsity (skip kernels, §II).
///
/// `sparsity = (1,1,1)` is dense convolution. Panics when the dilated
/// kernel does not fit in the image.
pub fn conv_valid(img: &Image, ker: &Image, sparsity: Vec3) -> Image {
    let mut out = Tensor3::<f32>::zeros(fitted(img.shape(), ker.shape(), sparsity));
    conv_valid_into(img, ker, sparsity, &mut out);
    out
}

/// [`conv_valid`] into a caller-provided **zero-filled** output of the
/// valid shape — the allocation-free form used with pool-leased
/// buffers (leases are zeroed). Panics on a wrong output shape.
pub fn conv_valid_into(img: &Image, ker: &Image, sparsity: Vec3, out: &mut Image) {
    let valid = ValidRows::new(img.shape(), ker.shape(), sparsity);
    with_scratch(|b| valid.forward(img, ker, out, b));
}

/// Kernel gradient of a sparse valid convolution (§III-B).
///
/// For forward `y = conv_valid(x, w, s)` and loss gradient `g = ∂L/∂y`,
/// returns `∂L/∂w`, a tensor shaped like `w`:
///
/// `∂L/∂w[t] = Σ_o g[o] · x[o + (k−1−t)·s]`
///
/// which is the paper's "reflected forward image convolved with the
/// backward image", sampled on the kernel lattice. `x` is widened to
/// f64 once; each sum runs in f64 over exact products
/// ([`znn_simd::dot_taps_f64`]) and is rounded to f32 once.
pub fn kernel_gradient(x: &Image, g: &Image, k: Vec3, sparsity: Vec3) -> Image {
    let valid = ValidRows::new(x.shape(), k, sparsity);
    with_scratch(|b| valid.kernel_gradient(x, g, k, b))
}

/// Input gradient of a sparse valid convolution: the backward-pass
/// operation of §III-A — a *full* convolution of the output gradient
/// with the **reflected** kernel at the same sparsity.
pub fn input_gradient(g: &Image, ker: &Image, sparsity: Vec3) -> Image {
    let margin = (ker.shape() - Vec3::one()) * sparsity;
    let mut out = Tensor3::<f32>::zeros(g.shape() + margin);
    input_gradient_into(g, ker, sparsity, &mut out);
    out
}

/// [`input_gradient`] into a caller-provided **zero-filled** output of
/// shape `g + s·(k−1)` — the form the engine runs on pool-leased
/// buffers. Panics on a wrong output shape.
///
/// Gather form: output row `(x, y)` applies only the `(ux, uy)` kernel
/// rows that land inside `g` — the full convolution's x/y halo taps
/// would only add exact zeros — so no flipped kernel or padded copy is
/// built. Along z the rows read a copy of `g` with a zero halo of
/// `s·(k−1)` on each side, keeping every z tap a contiguous run.
pub fn input_gradient_into(g: &Image, ker: &Image, sparsity: Vec3, out: &mut Image) {
    let full = FullRows::new(g.shape(), ker.shape(), sparsity);
    with_scratch(|b| full.run(g, ker, out, b));
}

/// Along one axis of a full convolution onto `n = g + s·(k−1)`
/// outputs: the distinct in-range tap intervals `lo..hi` (taps `u` with
/// `o + u·s − s·(k−1)` inside `0..g`), and each output's index into
/// them.
fn tap_ranges(n: usize, g: usize, k: usize, s: usize) -> (Vec<(usize, usize)>, Vec<usize>) {
    let m = (k - 1) * s;
    let mut distinct: Vec<(usize, usize)> = Vec::new();
    let index = (0..n)
        .map(|o| {
            let lo = m.saturating_sub(o).div_ceil(s);
            let r = (lo, (g + m - o).div_ceil(s).clamp(lo, k));
            distinct.iter().position(|&d| d == r).unwrap_or_else(|| {
                distinct.push(r);
                distinct.len() - 1
            })
        })
        .collect();
    (distinct, index)
}

#[cfg(test)]
mod tests {
    use super::*;
    use znn_tensor::ops::random;
    use znn_tensor::pad;

    /// Full true convolution with per-axis sparsity: output
    /// `n + s·(k−1)`, as a valid convolution of the zero-padded input.
    fn conv_full(img: &Image, ker: &Image, sparsity: Vec3) -> Image {
        let n = img.shape();
        let k = ker.shape();
        let margin = (k - Vec3::one()) * sparsity;
        let padded = pad::pad(img, n + margin * 2, margin);
        conv_valid(&padded, ker, sparsity)
    }

    /// Reference implementation: direct translation of the definition.
    fn conv_valid_reference(img: &Image, ker: &Image, s: Vec3) -> Image {
        let n = img.shape();
        let k = ker.shape();
        let out = valid_shape(n, k, s).unwrap();
        Tensor3::from_fn(out, |o| {
            let mut acc = 0.0f64;
            for t in k.iter() {
                let at = Vec3::new(
                    o[0] + (k[0] - 1 - t[0]) * s[0],
                    o[1] + (k[1] - 1 - t[1]) * s[1],
                    o[2] + (k[2] - 1 - t[2]) * s[2],
                );
                acc += img.at(at) as f64 * ker.at(t) as f64;
            }
            acc as f32
        })
    }

    #[test]
    fn dense_valid_matches_reference() {
        for (n, k) in [
            (Vec3::cube(6), Vec3::cube(3)),
            (Vec3::new(7, 5, 4), Vec3::new(3, 2, 1)),
            (Vec3::flat(8, 8), Vec3::flat(3, 3)),
            (Vec3::cube(4), Vec3::cube(4)),
        ] {
            let img = random(n, 1);
            let ker = random(k, 2);
            let got = conv_valid(&img, &ker, Vec3::one());
            let want = conv_valid_reference(&img, &ker, Vec3::one());
            assert!(got.max_abs_diff(&want) < 1e-5, "n={n} k={k}");
        }
    }

    #[test]
    fn sparse_valid_matches_reference() {
        for s in [Vec3::cube(2), Vec3::new(1, 2, 3), Vec3::cube(3)] {
            let n = Vec3::cube(10);
            let k = Vec3::cube(3);
            let img = random(n, 3);
            let ker = random(k, 4);
            let got = conv_valid(&img, &ker, s);
            let want = conv_valid_reference(&img, &ker, s);
            assert_eq!(got.shape(), n - (k - Vec3::one()) * s);
            assert!(got.max_abs_diff(&want) < 1e-5, "s={s}");
        }
    }

    #[test]
    fn sparse_conv_equals_dense_conv_with_dilated_kernel() {
        let n = Vec3::cube(9);
        let k = Vec3::cube(3);
        let s = Vec3::cube(2);
        let img = random(n, 5);
        let ker = random(k, 6);
        let sparse = conv_valid(&img, &ker, s);
        let dense = conv_valid(&img, &pad::dilate(&ker, s), Vec3::one());
        assert!(sparse.max_abs_diff(&dense) < 1e-5);
    }

    #[test]
    fn full_conv_round_trips_shape_and_matches_padding_identity() {
        let img = random(Vec3::cube(4), 7);
        let ker = random(Vec3::cube(3), 8);
        let full = conv_full(&img, &ker, Vec3::one());
        assert_eq!(full.shape(), Vec3::cube(6));
        // interior of full conv equals valid conv of padded image: already
        // by construction; check mass identity instead
        assert!((full.sum() - img.sum() * ker.sum()).abs() < 1e-3);
    }

    #[test]
    fn delta_kernel_identity() {
        let img = random(Vec3::cube(5), 9);
        let delta = Tensor3::filled(Vec3::one(), 1.0f32);
        assert!(conv_valid(&img, &delta, Vec3::one()).max_abs_diff(&img) == 0.0);
        assert!(conv_full(&img, &delta, Vec3::one()).max_abs_diff(&img) == 0.0);
    }

    #[test]
    fn shifted_delta_translates() {
        // kernel with a 1 at position t shifts the image by (k-1)-t under
        // true convolution
        let n = Vec3::cube(5);
        let img = random(n, 10);
        let mut ker = Tensor3::<f32>::zeros(Vec3::cube(3));
        ker.set((2, 2, 2), 1.0); // t = k-1 => no shift in valid output
        let out = conv_valid(&img, &ker, Vec3::one());
        let want = pad::crop(&img, Vec3::zero(), Vec3::cube(3));
        assert!(out.max_abs_diff(&want) == 0.0);
    }

    /// Finite-difference check of the kernel gradient.
    #[test]
    fn kernel_gradient_matches_finite_differences() {
        let n = Vec3::new(5, 4, 6);
        let k = Vec3::new(2, 2, 3);
        let x = random(n, 11);
        let w = random(k, 12);
        let g = random(valid_shape(n, k, Vec3::one()).unwrap(), 13);
        // L = <conv(x, w), g>; dL/dw via our gradient
        let grad = kernel_gradient(&x, &g, k, Vec3::one());
        let eps = 1e-2f32;
        for t in k.iter() {
            let mut wp = w.clone();
            wp[t] += eps;
            let mut wm = w.clone();
            wm[t] -= eps;
            let lp = znn_tensor::ops::dot(&conv_valid(&x, &wp, Vec3::one()), &g);
            let lm = znn_tensor::ops::dot(&conv_valid(&x, &wm, Vec3::one()), &g);
            let fd = ((lp - lm) / (2.0 * eps as f64)) as f32;
            assert!(
                (grad[t] - fd).abs() < 2e-2 * (1.0 + fd.abs()),
                "at {t}: analytic {} vs fd {fd}",
                grad[t]
            );
        }
    }

    #[test]
    fn sparse_kernel_gradient_matches_finite_differences() {
        let n = Vec3::cube(8);
        let k = Vec3::cube(2);
        let s = Vec3::cube(2);
        let x = random(n, 14);
        let w = random(k, 15);
        let g = random(valid_shape(n, k, s).unwrap(), 16);
        let grad = kernel_gradient(&x, &g, k, s);
        let eps = 1e-2f32;
        for t in k.iter() {
            let mut wp = w.clone();
            wp[t] += eps;
            let mut wm = w.clone();
            wm[t] -= eps;
            let lp = znn_tensor::ops::dot(&conv_valid(&x, &wp, s), &g);
            let lm = znn_tensor::ops::dot(&conv_valid(&x, &wm, s), &g);
            let fd = ((lp - lm) / (2.0 * eps as f64)) as f32;
            assert!(
                (grad[t] - fd).abs() < 2e-2 * (1.0 + fd.abs()),
                "at {t}: analytic {} vs fd {fd}",
                grad[t]
            );
        }
    }

    /// Finite-difference check of the input gradient (backward conv).
    #[test]
    fn input_gradient_matches_finite_differences() {
        let n = Vec3::new(4, 5, 3);
        let k = Vec3::new(2, 3, 2);
        let x = random(n, 17);
        let w = random(k, 18);
        let g = random(valid_shape(n, k, Vec3::one()).unwrap(), 19);
        let grad = input_gradient(&g, &w, Vec3::one());
        assert_eq!(grad.shape(), n);
        let eps = 1e-2f32;
        for at in [Vec3::zero(), Vec3::new(1, 2, 1), Vec3::new(3, 4, 2)] {
            let mut xp = x.clone();
            xp[at] += eps;
            let mut xm = x.clone();
            xm[at] -= eps;
            let lp = znn_tensor::ops::dot(&conv_valid(&xp, &w, Vec3::one()), &g);
            let lm = znn_tensor::ops::dot(&conv_valid(&xm, &w, Vec3::one()), &g);
            let fd = ((lp - lm) / (2.0 * eps as f64)) as f32;
            assert!(
                (grad[at] - fd).abs() < 2e-2 * (1.0 + fd.abs()),
                "at {at}: analytic {} vs fd {fd}",
                grad[at]
            );
        }
    }

    #[test]
    fn sparse_input_gradient_matches_finite_differences() {
        let n = Vec3::cube(7);
        let k = Vec3::cube(2);
        let s = Vec3::cube(3);
        let x = random(n, 20);
        let w = random(k, 21);
        let g = random(valid_shape(n, k, s).unwrap(), 22);
        let grad = input_gradient(&g, &w, s);
        assert_eq!(grad.shape(), n);
        let eps = 1e-2f32;
        for at in [Vec3::zero(), Vec3::cube(3), Vec3::cube(6)] {
            let mut xp = x.clone();
            xp[at] += eps;
            let mut xm = x.clone();
            xm[at] -= eps;
            let lp = znn_tensor::ops::dot(&conv_valid(&xp, &w, s), &g);
            let lm = znn_tensor::ops::dot(&conv_valid(&xm, &w, s), &g);
            let fd = ((lp - lm) / (2.0 * eps as f64)) as f32;
            assert!(
                (grad[at] - fd).abs() < 2e-2 * (1.0 + fd.abs()),
                "at {at}: analytic {} vs fd {fd}",
                grad[at]
            );
        }
    }
}
