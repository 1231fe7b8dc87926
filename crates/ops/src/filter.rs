//! Max-filtering and its Jacobian (paper §II, §III-A).
//!
//! Max-filtering computes the maximum of a sliding `k³` window at every
//! location, producing `n − s·(k−1)` voxels at window dilation `s` (the
//! sparse windows that pair with skip-kernel convolutions in §II-A).
//! Following the paper, 3D filtering is decomposed into sequential 1D
//! filtering along each of the three axes, X then Y then Z.
//!
//! # The shifted-row kernel
//!
//! In the row-major `[x][y][z]` layout the `k` taps of a window along
//! one axis are the same buffer shifted by `s · stride`, so each 1D pass
//! is `k − 1` strict-`>` maxima of **contiguous shifted slices**: whole
//! `y·z` planes for the X pass, `z` rows within each plane for the Y
//! pass, shifted runs within each row for the Z pass. A dilated window
//! is the same loop with a longer shift. There is no line gather or
//! scatter and no per-line bookkeeping; the slice loops vectorise as
//! they stand. At the window sizes ZNN nets use (`k ≤ 4`) this costs
//! `k − 1` compares per voxel per axis, no more than van Herk /
//! Gil-Werman's 3, with far less code.
//!
//! Two entry points share the passes:
//!
//! * [`max_filter_output`] — values only, for inference, where nothing
//!   reads the argmax;
//! * [`max_filter`] with [`FilterImpl::Deque`] — also records, for every
//!   output voxel, the linear index of the winning *input* voxel,
//!   carried through the three passes with a branch-free mask blend, so
//!   the backward pass can scatter-accumulate gradients to the right
//!   place.
//!
//! Both produce bit-identical outputs. Pass buffers are leased from the
//! input image's [`BufferSource`] when it has one (so the output returns
//! there on drop, and scratch is recycled before the call returns) and
//! plainly allocated otherwise; the argmax is always plain.
//!
//! **Ties and NaN.** A tap replaces the running maximum only when it
//! compares strictly greater, so among equal values — `-0.0` and `+0.0`
//! included — the earliest voxel wins and its bits are kept. A NaN never
//! replaces a value, and a NaN in a window's first position persists
//! through that pass.
//!
//! [`FilterImpl::Heap`] is the paper's ordered-window variant, O(log k)
//! per element ("for each array we keep a heap of size k"), kept for the
//! ablation benchmark. It orders by `f32::total_cmp`, so it ranks `+0.0`
//! above `-0.0` and agrees with the shifted-row kernel only on input
//! without mixed-sign zeros or NaN.

use std::collections::BTreeMap;
use std::sync::Arc;
use znn_tensor::lines::{Axis, LineSpec};
use znn_tensor::{BufferSource, Image, Tensor3, Vec3};

/// Which max-filter implementation to use.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum FilterImpl {
    /// The shifted-row kernel (see the [module docs](self)), O(k) per
    /// voxel per axis. The name is historical: this variant once
    /// selected a monotonic-deque filter, and is kept because the
    /// benchmark crate names it.
    #[default]
    Deque,
    /// Ordered multiset ("heap of size k"), O(n log k) per line — the
    /// variant described in the paper.
    Heap,
}

/// Result of a max-filter forward pass.
pub struct FilterResult {
    /// Filtered image of shape `n − s·(k−1)`.
    pub output: Image,
    /// For each output voxel, the linear index (into the original input)
    /// of the voxel that supplied the maximum. Ties resolve
    /// deterministically to the earliest voxel of each 1D pass, composed
    /// X→Y→Z: the tied voxel with the smallest z, then y, then x offset.
    pub argmax: Tensor3<u32>,
}

/// Max-filter forward pass with window `k` and per-axis dilation `s`.
pub fn max_filter(img: &Image, k: Vec3, s: Vec3, which: FilterImpl) -> FilterResult {
    check_window(img.shape(), k, s);
    match which {
        FilterImpl::Deque => shifted_argmax(img, k, s),
        FilterImpl::Heap => heap_filter(img, k, s),
    }
}

/// The output of [`max_filter`] without the argmax, bit for bit — for
/// inference, where nothing runs the backward pass.
pub fn max_filter_output(img: &Image, k: Vec3, s: Vec3) -> Image {
    check_window(img.shape(), k, s);
    let mut shape = img.shape();
    // ping-pong: each pass's output is no longer than the one before, so
    // the buffer two passes back always has room for the next
    let (mut cur, mut spare): (Option<PassBuf>, Option<PassBuf>) = (None, None);
    for axis in 0..3 {
        if k[axis] == 1 {
            continue;
        }
        let (p, out) = Pass::along(shape, axis, k[axis], s[axis]);
        let mut dst = match spare.take() {
            Some(b) => b.cleared(),
            None => PassBuf::lease(out.len(), img.home()),
        };
        let src = cur.as_ref().map_or(img.as_slice(), |b| &b.v[..]);
        max_pass(src, p, &mut dst.v);
        spare = cur.replace(dst);
        shape = out;
    }
    match cur {
        Some(b) => b.into_image(shape),
        None => img.clone(),
    }
}

/// The training entry: [`max_filter_output`]'s passes plus the winner
/// index of every voxel.
fn shifted_argmax(img: &Image, k: Vec3, s: Vec3) -> FilterResult {
    let mut shape = img.shape();
    let mut cur: Option<(PassBuf, Vec<u32>)> = None;
    let mut spare: Option<(PassBuf, Vec<u32>)> = None;
    for axis in 0..3 {
        if k[axis] == 1 {
            continue;
        }
        let (p, out) = Pass::along(shape, axis, k[axis], s[axis]);
        let (mut dst, mut dst_idx) = match spare.take() {
            Some((b, mut ix)) => {
                ix.clear();
                (b.cleared(), ix)
            }
            None => (
                PassBuf::lease(out.len(), img.home()),
                Vec::with_capacity(out.len()),
            ),
        };
        match &cur {
            // the first pass reads the input itself: a voxel's winner
            // index is its own position
            None => argmax_pass(
                img.as_slice(),
                |at, len| (at..at + len).map(|q| q as u32),
                p,
                &mut dst.v,
                &mut dst_idx,
            ),
            Some((b, ix)) => argmax_pass(
                &b.v,
                |at, len| ix[at..at + len].iter().copied(),
                p,
                &mut dst.v,
                &mut dst_idx,
            ),
        }
        spare = cur.replace((dst, dst_idx));
        shape = out;
    }
    match cur {
        Some((b, ix)) => FilterResult {
            output: b.into_image(shape),
            argmax: Tensor3::from_vec(shape, ix),
        },
        None => FilterResult {
            output: img.clone(),
            argmax: Tensor3::from_fn(shape, |at| shape.offset(at) as u32),
        },
    }
}

fn check_window(n: Vec3, k: Vec3, s: Vec3) {
    assert!(
        k.dilated(s).le(n),
        "window {k} at sparsity {s} larger than image {n}"
    );
}

/// One 1D pass over a row-major buffer: `lines` independent runs, run
/// `l` starting at `src[l · in_stride]` and producing `len` outputs,
/// each the maximum over `k` taps `shift` apart. Runs are written back
/// to back, so a pass's output is itself a row-major tensor.
#[derive(Clone, Copy)]
struct Pass {
    lines: usize,
    in_stride: usize,
    len: usize,
    shift: usize,
    k: usize,
}

impl Pass {
    /// The pass along `axis` of a `cur`-shaped tensor, and the shape it
    /// produces.
    fn along(cur: Vec3, axis: usize, k: usize, s: usize) -> (Pass, Vec3) {
        let mut out = cur;
        out[axis] = cur[axis] - s * (k - 1);
        let stride: usize = (axis + 1..3).map(|a| cur[a]).product();
        let pass = Pass {
            lines: (0..axis).map(|a| cur[a]).product(),
            in_stride: cur[axis] * stride,
            len: out[axis] * stride,
            shift: s * stride,
            k,
        };
        (pass, out)
    }

    /// Input voxels one run reads.
    fn span(&self) -> usize {
        self.len + (self.k - 1) * self.shift
    }
}

/// Values-only pass: appends the pass's output to `dst`.
fn max_pass(src: &[f32], p: Pass, dst: &mut Vec<f32>) {
    for l in 0..p.lines {
        let run = &src[l * p.in_stride..][..p.span()];
        let start = dst.len();
        dst.extend_from_slice(&run[..p.len]);
        let out = &mut dst[start..];
        for j in 1..p.k {
            for (o, &v) in out.iter_mut().zip(&run[j * p.shift..]) {
                *o = if v > *o { v } else { *o };
            }
        }
    }
}

/// Values-and-winners pass: appends the pass's output to `dst` and the
/// winners' input indices to `dst_idx`. `winners(at, len)` yields the
/// input index of each of `src[at..at + len]`, so indices compose across
/// passes. The index update is a bit-mask blend, not a branch, so it
/// vectorises alongside the values.
fn argmax_pass<W, I>(src: &[f32], winners: W, p: Pass, dst: &mut Vec<f32>, dst_idx: &mut Vec<u32>)
where
    W: Fn(usize, usize) -> I,
    I: Iterator<Item = u32>,
{
    for l in 0..p.lines {
        let at = l * p.in_stride;
        let run = &src[at..][..p.span()];
        let start = dst.len();
        dst.extend_from_slice(&run[..p.len]);
        dst_idx.extend(winners(at, p.len));
        let (out, out_idx) = (&mut dst[start..], &mut dst_idx[start..]);
        for j in 1..p.k {
            let off = j * p.shift;
            let taps = run[off..].iter().zip(winners(at + off, p.len));
            for ((o, oi), (&v, vi)) in out.iter_mut().zip(out_idx.iter_mut()).zip(taps) {
                // all ones where the tap wins
                let win = ((v > *o) as u32).wrapping_neg();
                *o = f32::from_bits((v.to_bits() & win) | (o.to_bits() & !win));
                *oi = (vi & win) | (*oi & !win);
            }
        }
    }
}

/// The output buffer of one pass, leased from the input image's pool
/// when it has one: it becomes the result image, or is recycled there
/// on drop if it was only scratch (on unwinding too).
struct PassBuf {
    v: Vec<f32>,
    home: Option<Arc<dyn BufferSource<f32>>>,
}

impl PassBuf {
    /// An empty buffer with room for `len` voxels.
    fn lease(len: usize, home: Option<&Arc<dyn BufferSource<f32>>>) -> PassBuf {
        PassBuf {
            v: home.map_or_else(|| Vec::with_capacity(len), |h| h.lease_empty(len)),
            home: home.cloned(),
        }
    }

    /// The same buffer emptied, for a later pass.
    fn cleared(mut self) -> PassBuf {
        self.v.clear();
        self
    }

    fn into_image(mut self, shape: Vec3) -> Image {
        let img = Image::from_vec(shape, std::mem::take(&mut self.v));
        match self.home.take() {
            Some(h) => img.with_home(h),
            None => img,
        }
    }
}

impl Drop for PassBuf {
    fn drop(&mut self) {
        if let Some(h) = self.home.take() {
            h.recycle(std::mem::take(&mut self.v));
        }
    }
}

/// Total-order key for `f32` values (NaN sorts via `total_cmp` and stays
/// deterministic).
#[derive(Clone, Copy, PartialEq)]
struct OrdF32(f32);

impl Eq for OrdF32 {}
impl PartialOrd for OrdF32 {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for OrdF32 {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// The paper's variant: gathers every axis line and slides an ordered
/// window over each residue class of the dilation.
fn heap_filter(img: &Image, k: Vec3, s: Vec3) -> FilterResult {
    let n = img.shape();
    let mut vals = img.clone();
    let mut idxs = Tensor3::<u32>::from_fn(n, |at| n.offset(at) as u32);
    for axis in Axis::ALL {
        let a = axis as usize;
        if k[a] == 1 {
            continue;
        }
        let cur = vals.shape();
        let mut out_shape = cur;
        out_shape[a] = cur[a] - s[a] * (k[a] - 1);
        let in_spec = LineSpec::new(cur, axis);
        let out_spec = LineSpec::new(out_shape, axis);
        let mut next_vals = Tensor3::<f32>::zeros(out_shape);
        let mut next_idxs = Tensor3::<u32>::zeros(out_shape);
        let mut vbuf = vec![0.0f32; in_spec.len];
        let mut ibuf = vec![0u32; in_spec.len];
        let mut ovbuf = vec![0.0f32; out_spec.len];
        let mut oibuf = vec![0u32; out_spec.len];
        for i in 0..in_spec.count {
            in_spec.read_line(&vals, i, &mut vbuf);
            in_spec.read_line(&idxs, i, &mut ibuf);
            heap_line(&vbuf, &ibuf, k[a], s[a], &mut ovbuf, &mut oibuf);
            out_spec.write_line(&mut next_vals, i, &ovbuf);
            out_spec.write_line(&mut next_idxs, i, &oibuf);
        }
        vals = next_vals;
        idxs = next_idxs;
    }
    FilterResult {
        output: vals,
        argmax: idxs,
    }
}

/// 1D dilated sliding maximum over `(vals, idxs)` with an ordered
/// multiset keyed on (value, Reverse(position)), so the greatest key is
/// the max value with the earliest position — each element inserted and
/// removed at most once, O(log k) each, as in the paper.
fn heap_line(
    vals: &[f32],
    idxs: &[u32],
    k: usize,
    s: usize,
    out_vals: &mut [f32],
    out_idxs: &mut [u32],
) {
    let n = vals.len();
    let m = out_vals.len();
    debug_assert_eq!(m, n - s * (k - 1));
    // windows with the same residue o mod s slide over the subsequence
    // vals[r], vals[r+s], ...
    for r in 0..s.min(m) {
        let class_len = (n - r).div_ceil(s);
        let mut set: BTreeMap<(OrdF32, std::cmp::Reverse<usize>), ()> = BTreeMap::new();
        for j in 0..class_len {
            set.insert((OrdF32(vals[r + j * s]), std::cmp::Reverse(j)), ());
            if j >= k {
                set.remove(&(OrdF32(vals[r + (j - k) * s]), std::cmp::Reverse(j - k)));
            }
            if j + 1 >= k {
                let o = r + (j + 1 - k) * s;
                if o < m {
                    let (&(v, std::cmp::Reverse(p)), _) =
                        set.last_key_value().expect("window is non-empty");
                    out_vals[o] = v.0;
                    out_idxs[o] = idxs[r + p * s];
                }
            }
        }
    }
}

/// Max-filter Jacobian: scatter-*accumulates* each output gradient voxel
/// onto the input voxel that won its window (§III-A — unlike pooling,
/// windows overlap, so one input voxel can receive many contributions).
pub fn max_filter_backward(grad: &Image, argmax: &Tensor3<u32>, input_shape: Vec3) -> Image {
    assert_eq!(grad.shape(), argmax.shape(), "gradient/argmax mismatch");
    let mut out = Tensor3::<f32>::zeros(input_shape);
    let out_data = out.as_mut_slice();
    for (&g, &ix) in grad.as_slice().iter().zip(argmax.as_slice()) {
        out_data[ix as usize] += g;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use znn_tensor::ops::{dot, random};
    use znn_tensor::pad;

    /// Brute-force dilated max filter with the composed tie-break: each
    /// window starts from its first tap and takes a later one only when
    /// it compares strictly greater, visiting taps z-major then y then x.
    fn reference(img: &Image, k: Vec3, s: Vec3) -> FilterResult {
        let n = img.shape();
        let out_shape = n.valid_conv(k.dilated(s)).unwrap();
        let mut output = Tensor3::<f32>::zeros(out_shape);
        let mut argmax = Tensor3::<u32>::zeros(out_shape);
        for o in out_shape.iter() {
            let mut best = img.at(o);
            let mut best_at = n.offset(o) as u32;
            for dz in 0..k[2] {
                for dy in 0..k[1] {
                    for dx in 0..k[0] {
                        let at = o + Vec3::new(dx, dy, dz) * s;
                        let v = img.at(at);
                        if v > best {
                            best = v;
                            best_at = n.offset(at) as u32;
                        }
                    }
                }
            }
            output[o] = best;
            argmax[o] = best_at;
        }
        FilterResult { output, argmax }
    }

    fn bits(img: &Image) -> Vec<u32> {
        img.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn dense_filter_matches_brute_force_both_impls() {
        for which in [FilterImpl::Deque, FilterImpl::Heap] {
            for (n, k) in [
                (Vec3::cube(6), Vec3::cube(2)),
                (Vec3::new(5, 7, 9), Vec3::new(2, 3, 4)),
                (Vec3::flat(10, 10), Vec3::flat(3, 3)),
            ] {
                let img = random(n, 41);
                let got = max_filter(&img, k, Vec3::one(), which);
                let want = reference(&img, k, Vec3::one());
                assert_eq!(got.output, want.output, "{which:?} n={n} k={k}");
                assert_eq!(got.argmax, want.argmax, "{which:?} n={n} k={k}");
            }
        }
    }

    #[test]
    fn sparse_filter_matches_brute_force_both_impls() {
        for which in [FilterImpl::Deque, FilterImpl::Heap] {
            for s in [Vec3::cube(2), Vec3::new(1, 2, 3)] {
                let n = Vec3::cube(11);
                let k = Vec3::cube(3);
                let img = random(n, 42);
                let got = max_filter(&img, k, s, which);
                let want = reference(&img, k, s);
                assert_eq!(got.output, want.output, "{which:?} s={s}");
                assert_eq!(got.argmax, want.argmax, "{which:?} s={s}");
            }
        }
    }

    /// Image shape, window and dilation with the dilated window fitting:
    /// extents 1–12 (flat `x = 1` shapes drawn often), `k` 1–5, `s` 1–3.
    fn geometry() -> impl Strategy<Value = (Vec3, Vec3, Vec3)> {
        (
            (prop_oneof![Just(1usize), 1usize..=12], 1usize..=12, 1usize..=12),
            (1usize..=5, 1usize..=5, 1usize..=5),
            (1usize..=3, 1usize..=3, 1usize..=3),
        )
            .prop_map(|(n, k, s)| {
                let (n, k, s) = (Vec3::from(n), Vec3::from(k), Vec3::from(s));
                // shrink each window until its dilation fits the extent
                let k = Vec3::new(
                    k[0].min((n[0] - 1) / s[0] + 1),
                    k[1].min((n[1] - 1) / s[1] + 1),
                    k[2].min((n[2] - 1) / s[2] + 1),
                );
                (n, k, s)
            })
    }

    /// An image over {−1, −0, +0, 1, ±∞}, so ties dominate every window.
    fn tie_heavy() -> impl Strategy<Value = (Image, Vec3, Vec3)> {
        const VALS: [f32; 6] = [-1.0, -0.0, 0.0, 1.0, f32::INFINITY, f32::NEG_INFINITY];
        const MAX_LEN: usize = 12 * 12 * 12;
        let picks = proptest::collection::vec(0..VALS.len(), MAX_LEN..MAX_LEN + 1);
        (geometry(), picks).prop_map(|((n, k, s), picks)| {
            (Tensor3::from_fn(n, |at| VALS[picks[n.offset(at)]]), k, s)
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn shifted_rows_match_brute_force_bit_for_bit((img, k, s) in tie_heavy()) {
            let got = max_filter(&img, k, s, FilterImpl::Deque);
            let want = reference(&img, k, s);
            prop_assert_eq!(bits(&got.output), bits(&want.output));
            prop_assert_eq!(&got.argmax, &want.argmax);
            // the forward-only entry is the training entry minus the argmax
            prop_assert_eq!(bits(&max_filter_output(&img, k, s)), bits(&got.output));
            // the heap orders +0 above -0, so compare it on one zero sign
            let img = img.map(|v| if v == 0.0 { 0.0 } else { v });
            let a = max_filter(&img, k, s, FilterImpl::Deque);
            let b = max_filter(&img, k, s, FilterImpl::Heap);
            prop_assert_eq!(bits(&a.output), bits(&b.output));
            prop_assert_eq!(a.argmax, b.argmax);
        }
    }

    #[test]
    fn forward_only_matches_training_entry_at_workload_geometries() {
        for (n, k, s) in [
            (Vec3::cube(51), Vec3::cube(2), Vec3::one()),
            (Vec3::cube(42), Vec3::cube(2), Vec3::cube(2)),
            (Vec3::new(31, 31, 29), Vec3::cube(2), Vec3::one()),
            (Vec3::flat(91, 91), Vec3::flat(2, 2), Vec3::one()),
            (Vec3::cube(13), Vec3::cube(3), Vec3::new(1, 2, 3)),
        ] {
            let img = random(n, 47);
            let fwd = max_filter_output(&img, k, s);
            assert_eq!(bits(&fwd), bits(&max_filter(&img, k, s, FilterImpl::Deque).output));
        }
    }

    #[test]
    fn signed_zero_ties_keep_the_earliest_sign() {
        let img = Tensor3::from_vec(Vec3::new(1, 1, 4), vec![-0.0, 0.0, 0.0, -0.0]);
        let k = Vec3::new(1, 1, 2);
        let r = max_filter(&img, k, Vec3::one(), FilterImpl::Deque);
        assert_eq!(bits(&r.output), bits(&img)[..3]);
        assert_eq!(r.argmax.as_slice(), &[0, 1, 2]);
        assert_eq!(bits(&max_filter_output(&img, k, Vec3::one())), bits(&img)[..3]);
    }

    #[test]
    fn nan_never_replaces_and_persists_in_first_position() {
        let nan = f32::NAN;
        let img = Tensor3::from_vec(Vec3::new(1, 1, 5), vec![1.0, nan, 0.5, nan, 2.0]);
        let k = Vec3::new(1, 1, 2);
        let r = max_filter(&img, k, Vec3::one(), FilterImpl::Deque);
        let out = r.output.as_slice();
        assert_eq!(out[0], 1.0); // NaN in second position is ignored
        assert!(out[1].is_nan()); // NaN in first position persists
        assert_eq!(out[2], 0.5);
        assert!(out[3].is_nan());
        assert_eq!(r.argmax.as_slice(), &[0, 1, 2, 3]);
    }

    #[test]
    fn pooled_input_leases_its_output_and_returns_scratch() {
        use std::sync::atomic::{AtomicIsize, Ordering::SeqCst};
        // a counting recycler standing in for the pools of `znn-alloc`
        #[derive(Default)]
        struct Count(AtomicIsize);
        impl BufferSource<f32> for Count {
            fn lease(&self, len: usize) -> Vec<f32> {
                self.0.fetch_add(1, SeqCst);
                vec![0.0; len]
            }
            fn recycle(&self, _buf: Vec<f32>) {
                self.0.fetch_sub(1, SeqCst);
            }
        }
        let count = Arc::new(Count::default());
        let home = Arc::clone(&count) as Arc<dyn BufferSource<f32>>;
        let img = random(Vec3::cube(9), 48).with_home(home);
        let live = || count.0.load(SeqCst);
        for k in [Vec3::cube(2), Vec3::new(1, 3, 1), Vec3::new(2, 1, 2)] {
            let r = max_filter(&img, k, Vec3::one(), FilterImpl::Deque);
            let fwd = max_filter_output(&img, k, Vec3::one());
            assert!(r.output.home().is_some() && fwd.home().is_some());
            // scratch went back before returning; only the two outputs are out
            assert_eq!(live(), 2, "k={k}");
            drop((r, fwd));
            assert_eq!(live(), 0, "k={k}");
        }
        // a plain input yields a plain output
        assert!(max_filter_output(&random(Vec3::cube(4), 49), Vec3::cube(2), Vec3::one())
            .home()
            .is_none());
    }

    #[test]
    fn ties_resolve_to_earliest_voxel() {
        let img = Tensor3::filled(Vec3::new(1, 1, 5), 1.0f32);
        for which in [FilterImpl::Deque, FilterImpl::Heap] {
            let r = max_filter(&img, Vec3::new(1, 1, 3), Vec3::one(), which);
            assert_eq!(r.argmax.as_slice(), &[0, 1, 2], "{which:?}");
        }
    }

    #[test]
    fn heap_and_deque_agree_on_adversarial_patterns() {
        // monotone up, monotone down, sawtooth, constant
        let patterns: Vec<Vec<f32>> = vec![
            (0..20).map(|i| i as f32).collect(),
            (0..20).map(|i| -(i as f32)).collect(),
            (0..20).map(|i| (i % 3) as f32).collect(),
            vec![2.5; 20],
        ];
        for p in patterns {
            let img = Tensor3::from_vec(Vec3::new(1, 1, p.len()), p);
            for k in [2usize, 3, 5] {
                let a = max_filter(&img, Vec3::new(1, 1, k), Vec3::one(), FilterImpl::Deque);
                let b = max_filter(&img, Vec3::new(1, 1, k), Vec3::one(), FilterImpl::Heap);
                assert_eq!(a.output, b.output);
                assert_eq!(a.argmax, b.argmax);
            }
        }
    }

    #[test]
    fn max_pool_is_filter_sampled_on_the_block_lattice() {
        // pooling with p equals max-filtering with window p sampled at
        // stride p — the relationship behind Fig 2's equivalence
        let img = random(Vec3::cube(8), 43);
        let p = Vec3::cube(2);
        let pooled = crate::pool::max_pool(&img, p);
        let filtered = max_filter(&img, p, Vec3::one(), FilterImpl::Deque);
        let sampled = pad::gather_strided(&filtered.output, Vec3::zero(), p, pooled.output.shape());
        assert_eq!(sampled, pooled.output);
    }

    #[test]
    fn backward_accumulates_overlapping_windows() {
        // constant image: every window picks its first voxel; with k=2 the
        // first voxel of the line gets 1 window, interior ones up to 1 —
        // use a decreasing line so voxel 0 wins all windows it is in
        let img = Tensor3::from_vec(Vec3::new(1, 1, 4), vec![9.0, 1.0, 0.5, 0.2]);
        let r = max_filter(&img, Vec3::new(1, 1, 2), Vec3::one(), FilterImpl::Deque);
        assert_eq!(r.output.as_slice(), &[9.0, 1.0, 0.5]);
        let g = Tensor3::from_vec(Vec3::new(1, 1, 3), vec![1.0, 2.0, 4.0]);
        let back = max_filter_backward(&g, &r.argmax, img.shape());
        assert_eq!(back.as_slice(), &[1.0, 2.0, 4.0, 0.0]);
        // mass is conserved
        assert_eq!(back.sum(), g.sum());
    }

    #[test]
    fn backward_is_jacobian_transpose() {
        // values must be separated by more than the FD step so the
        // perturbation cannot flip any window's argmax
        let shape = Vec3::new(2, 5, 5);
        let noise = random(shape, 44);
        let x = Tensor3::from_fn(shape, |at| {
            (shape.offset(at) as f32 * 0.137) % 7.0 + 0.01 * noise.at(at)
        });
        let k = Vec3::new(1, 2, 2);
        let r = max_filter(&x, k, Vec3::one(), FilterImpl::Deque);
        let g = random(r.output.shape(), 45);
        let grad = max_filter_backward(&g, &r.argmax, x.shape());
        let eps = 1e-3f32;
        for at in [Vec3::new(0, 0, 0), Vec3::new(1, 2, 3), Vec3::new(1, 4, 4)] {
            let mut xp = x.clone();
            xp[at] += eps;
            let mut xm = x.clone();
            xm[at] -= eps;
            let lp = dot(&max_filter(&xp, k, Vec3::one(), FilterImpl::Deque).output, &g);
            let lm = dot(&max_filter(&xm, k, Vec3::one(), FilterImpl::Deque).output, &g);
            let fd = ((lp - lm) / (2.0 * eps as f64)) as f32;
            assert!(
                (grad[at] - fd).abs() < 1e-2,
                "at {at}: analytic {} vs fd {fd}",
                grad[at]
            );
        }
    }

    #[test]
    fn unit_window_is_identity() {
        let img = random(Vec3::cube(4), 46);
        let r = max_filter(&img, Vec3::one(), Vec3::one(), FilterImpl::Deque);
        assert_eq!(r.output, img);
    }
}
