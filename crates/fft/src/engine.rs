//! The 3D FFT engine and its plan cache.

use crate::line::{Direction, LinePlan};
use parking_lot::Mutex;
use std::cell::RefCell;
use std::collections::HashMap;
use std::mem::MaybeUninit;
use std::sync::Arc;
use znn_alloc::PoolSet;
use znn_tensor::{CImage, Complex32, Image, Spectrum, Vec3};

/// The scratch one transform works in.
#[derive(Default)]
struct Scratch {
    /// `LinePlan` scratch (the SIMD lines' slabs included).
    plan: Vec<Complex32>,
    /// Packed r2c/c2r lines, or the strided lines the scalar twin of
    /// the lanes path gathers.
    line: Vec<Complex32>,
}

thread_local! {
    /// This thread's transform scratch. Transforms are hot (one per
    /// image per pass), and allocating it per call was measurable. A
    /// transform borrows it from start to finish and starts no other
    /// transform inside, so the borrow never nests; every buffer is
    /// fully overwritten before it is read, so no output bit depends on
    /// what an earlier transform left there.
    static SCRATCH: RefCell<Scratch> = RefCell::default();
}

/// Runs `f` on this thread's scratch.
fn with_scratch<R>(f: impl FnOnce(&mut Scratch) -> R) -> R {
    SCRATCH.with(|s| f(&mut s.borrow_mut()))
}

/// Grows `buf` to at least `n` elements (it never shrinks) and returns
/// its first `n`.
fn borrow_buf(buf: &mut Vec<Complex32>, n: usize) -> &mut [Complex32] {
    if buf.len() < n {
        buf.resize(n, Complex32::default());
    }
    &mut buf[..n]
}

/// The voxels a pruned transform reads (forward) or writes (inverse):
/// along each axis `a`, the `count[a]` coordinates `at[a] + i·step[a]`
/// for `i < count[a]`, enumerated in descending `i` when `flip` is set.
///
/// A forward transform only transforms the lines that meet the lattice
/// before their axis is transformed; an inverse only the lines that
/// meet it after. Every other line is all-zero (forward) or never read
/// (inverse), so skipping it changes no kept value.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Lattice {
    pub at: Vec3,
    pub count: Vec3,
    pub step: Vec3,
    pub flip: bool,
}

impl Lattice {
    /// The dense box of `count` voxels at `at`.
    pub(crate) fn dense(at: Vec3, count: Vec3) -> Self {
        Lattice {
            at,
            count,
            step: Vec3::one(),
            flip: false,
        }
    }

    /// The `i`-th coordinate along axis `a`.
    fn coord(&self, a: usize, i: usize) -> usize {
        let i = if self.flip { self.count[a] - 1 - i } else { i };
        self.at[a] + i * self.step[a]
    }

    /// True when the lattice is non-empty and every coordinate lies
    /// inside a transform of shape `m`.
    fn fits(&self, m: Vec3) -> bool {
        (0..3).all(|a| self.count[a] >= 1 && self.at[a] + (self.count[a] - 1) * self.step[a] < m[a])
    }

    /// The lines along `axis` in a tensor of `shape`, in row-major order
    /// of the two other axes. Along each other axis `b`, only the
    /// lattice's coordinates are kept when `keep(b)`, every coordinate
    /// otherwise.
    fn lines(&self, shape: Vec3, axis: usize, keep: impl Fn(usize) -> bool) -> Lines {
        let strides = [shape[1] * shape[2], shape[2], 1];
        let others = match axis {
            0 => [1, 2],
            1 => [0, 2],
            _ => [0, 1],
        };
        let keep = others.map(&keep);
        Lines {
            lat: *self,
            axis,
            others,
            keep,
            counts: [0, 1].map(|k| {
                if keep[k] {
                    self.count[others[k]]
                } else {
                    shape[others[k]]
                }
            }),
            strides: others.map(|b| strides[b]),
        }
    }
}

/// The lines one transform stage runs: the row-major product of the
/// coordinates along the two other axes, each either every coordinate
/// or only the lattice's. Line origins are computed from the line
/// index, so no stage allocates.
#[derive(Clone, Copy)]
struct Lines {
    lat: Lattice,
    /// The axis the lines run along.
    axis: usize,
    /// The two other axes, outer first.
    others: [usize; 2],
    /// Whether each other axis keeps only the lattice's coordinates.
    keep: [bool; 2],
    /// Coordinates along each other axis.
    counts: [usize; 2],
    /// Element strides of the two other axes.
    strides: [usize; 2],
}

impl Lines {
    /// Number of lines.
    fn len(&self) -> usize {
        self.counts[0] * self.counts[1]
    }

    /// Offset of line `j`'s first element.
    fn start(&self, j: usize) -> usize {
        let idx = [j / self.counts[1], j % self.counts[1]];
        (0..2)
            .map(|k| {
                let c = if self.keep[k] {
                    self.lat.coord(self.others[k], idx[k])
                } else {
                    idx[k]
                };
                c * self.strides[k]
            })
            .sum()
    }

    /// Lines per row of adjacent lines: line `r·run + i` (`i < run`)
    /// starts at `start(r·run) + i`. A row runs along an unpruned other
    /// axis of unit stride — the packed axis, which the strided passes
    /// never prune: the inner axis of a volume's lines, or the outer
    /// one of a flat image's, whose inner axis is the unit `z`. `1`
    /// when neither applies.
    fn run(&self) -> usize {
        let unpruned_unit = |k: usize| !self.keep[k] && self.strides[k] == 1;
        if self.counts[1] == 1 && unpruned_unit(0) {
            self.counts[0]
        } else if unpruned_unit(1) {
            self.counts[1]
        } else {
            1
        }
    }
}

/// Lines per SIMD group: the lanes of one `process_lanes` call in the
/// strided passes, and the lines packed per `process_with_scratch` call
/// in the r2c/c2r loops (and gathered per call by the strided passes'
/// scalar twin). Matches the 8-line struct-of-arrays batch the Stockham
/// SIMD kernels consume, so a full group takes the vectorized path;
/// per-line results are bitwise identical either way, making group
/// boundaries unobservable.
const LINE_BATCH: usize = 8;

/// Plan cache: one planned 1D transform per (line length, direction).
type PlanMap = HashMap<(usize, Direction), Arc<LinePlan>>;
/// r2c twiddle cache: one table per (packed-axis extent, direction).
type TwiddleMap = HashMap<(usize, Direction), Arc<Vec<Complex32>>>;

/// One complex element loop of the packed stage: `znn_simd::r2c_unpack`
/// or `znn_simd::c2r_repack` (or a scalar twin).
type PackFn = fn(&mut [Complex32], &[Complex32], &[Complex32]);

/// The element loops of the packed stage: `znn-simd`'s dispatched
/// kernels, or their scalar twins under
/// [`FftEngine::with_scalar_kernels`]. Every pair is bitwise equal.
#[derive(Clone, Copy)]
struct PackKernels {
    /// The forward Hermitian unpack of one transformed line.
    unpack: PackFn,
    /// The inverse repack of one line's bins.
    repack: PackFn,
    /// The c2r extract of a dense output row.
    scale_copy: fn(&mut [MaybeUninit<f32>], &[f32], f32),
}

impl PackKernels {
    const DISPATCHED: PackKernels = PackKernels {
        unpack: znn_simd::r2c_unpack,
        repack: znn_simd::c2r_repack,
        scale_copy: znn_simd::scale_copy_f,
    };
    const SCALAR: PackKernels = PackKernels {
        unpack: znn_simd::scalar::r2c_unpack,
        repack: znn_simd::scalar::c2r_repack,
        scale_copy: znn_simd::scalar::scale_copy_f,
    };
}

/// A 3D FFT for real-valued images, built from cached 1D
/// [`LinePlan`]s.
///
/// The engine is cheap to share (`Arc<FftEngine>`) and thread-safe: the
/// plan cache is behind a mutex that is only touched on cache misses;
/// the transforms themselves run lock-free on caller-owned buffers plus
/// the calling thread's own scratch.
///
/// Every transform is **r2c / c2r** ([`FftEngine::rfft3`],
/// [`FftEngine::irfft3`] and the staged [`FftEngine::forward_padded`] /
/// [`FftEngine::inverse_real`]). Real input makes the spectrum
/// Hermitian, so only `⌊m/2⌋+1` bins along the packed axis are stored
/// ([`Spectrum`]); the packed stage turns each even-length real line
/// into a half-length complex line (even/odd trick), so that stage also
/// costs half the FLOPs. The packed axis is the last non-unit axis —
/// `z` for volumes, `y` for flat (`m_z == 1`) images — whose lines are
/// always contiguous; the other axes are strided complex line
/// transforms over the halved tensor. Each stage skips the lines that
/// are zero on the way in or unread on the way out (see the crate docs'
/// *Pruned transforms*).
///
/// The packed stage's element loops around its line transforms — the
/// Hermitian unpack, the inverse's repack and the dense c2r extract —
/// are `znn-simd` kernels (`r2c_unpack`, `c2r_repack`,
/// `scale_copy_f`), dispatched to AVX2 bodies that are bitwise equal to
/// their scalar twins. The dense pack is a plain row copy.
///
/// # Threading model
///
/// A transform runs from start to finish on the thread that calls it,
/// as one task of the paper's task graph does; parallelism comes from
/// running many transforms at once, never from splitting one. Any
/// number of threads may transform on one engine concurrently; each
/// works in its own thread's scratch buffers, which live as long as the
/// thread and are shared by every engine it runs.
///
/// Transforms are decomposed per axis into batches of independent 1D
/// lines run 8 at a time, which lets the Stockham engine run its
/// batched AVX2 lines (struct-of-arrays across the group — see
/// `znn-simd` and `docs/ARCHITECTURE.md` §7). The packed stage packs 8
/// contiguous lines into a line-major buffer per call. The strided
/// passes put the 8 lanes across the packed axis: element `k` of the
/// lines at 8 adjacent packed-axis coordinates is 8 adjacent
/// complexes, so each group is transformed in place — loaded,
/// deinterleaved, run through the butterflies and stored back, with no
/// gather, scatter or transpose — and each row of `⌊n/2⌋+1` lines ends
/// in one masked group. Plans without SIMD lines (scalar-pinned,
/// non-AVX2 hosts, non-5-smooth lengths) gather their strided lines
/// in groups of 8 instead. Batched and per-line results are bitwise
/// identical, so the grouping is purely a speed lever. Scratch is fully
/// overwritten before use, so transforms are **bit-for-bit
/// deterministic**, whichever thread runs them.
///
/// # Memory model
///
/// With [`FftEngine::with_buffer_pools`] every tensor the engine
/// produces — half-spectra and real outputs — is leased from a
/// `znn_alloc::PoolSet` and recycled when it drops. A forward transform
/// leases only its half-spectrum: [`FftEngine::forward_padded`] reads
/// the unpadded image directly, so no padded copy is leased. Every
/// inverse ([`FftEngine::inverse_real`], and [`FftEngine::irfft3`] as
/// its full box) leases only its output, without a zero-fill, writes
/// each wanted run into it, and drops the consumed spectrum, which
/// returns to the pool it was leased from. The per-thread scratch is
/// not pooled: it is a few lines long and lives as long as its thread.
/// A steady-state transform loop then performs zero allocation; see the
/// crate-level docs of `znn-alloc` and the §VII-C discussion in
/// `docs/ARCHITECTURE.md`.
///
/// # Example
///
/// ```
/// use znn_fft::FftEngine;
/// use znn_tensor::{ops, Vec3};
///
/// let engine = FftEngine::new();
/// // 48 = 2^4·3 is 5-smooth: every line transform takes the
/// // iterative Stockham path
/// let img = ops::random(Vec3::cube(48), 7);
/// let spec = engine.rfft3(&img);
/// // the half-spectrum stores 25 of 48 packed-axis bins per line
/// assert_eq!(spec.half().shape(), Vec3::new(48, 48, 25));
/// // the inverse consumes its spectrum and round-trips
/// let back = engine.irfft3(spec);
/// assert!(back.max_abs_diff(&img) < 1e-5);
/// ```
pub struct FftEngine {
    plans: Mutex<PlanMap>,
    /// Memoized unpack/repack twiddles `e^{∓2πik/n}`, `k ∈ 0..⌊n/2⌋+1`,
    /// for the r2c/c2r packed stages, keyed by `(n, direction)`.
    rtwiddles: Mutex<TwiddleMap>,
    /// When true, every 1D line plan comes from
    /// [`LinePlan::scalar`] — the Stockham kernels with the
    /// batched SIMD lines pinned off — and the packed stage runs the
    /// scalar twins (see [`FftEngine::with_scalar_kernels`]).
    scalar_kernels: bool,
    /// Recycling pools every produced tensor is leased from when set
    /// ([`FftEngine::with_buffer_pools`]): half-spectra and real
    /// outputs. `None` allocates plainly.
    pools: Option<Arc<PoolSet>>,
}

impl FftEngine {
    /// A new engine with an empty plan cache.
    pub fn new() -> Self {
        FftEngine {
            plans: Mutex::new(HashMap::new()),
            rtwiddles: Mutex::new(HashMap::new()),
            scalar_kernels: false,
            pools: None,
        }
    }

    /// The same engine as [`FftEngine::new`]: `_threads` is ignored,
    /// since every transform runs on its caller's thread. Kept for
    /// callers that still pass a thread count.
    pub fn with_threads(_threads: usize) -> Self {
        Self::new()
    }

    /// A new engine that runs no SIMD code of its own: its 1D line
    /// plans pin the Stockham kernels to their scalar per-line path,
    /// bypassing the batched SIMD lines, and its packed stage calls the
    /// scalar twins of `znn-simd`'s unpack, repack and extract kernels.
    /// Results are bitwise identical to the default engine — the vector
    /// bodies perform the same IEEE ops in the same order — so this
    /// switch can only ever change speed.
    ///
    /// It stays in the crate because it is the oracle of the bitwise
    /// SIMD pins: `tests/simd_parity.rs` and `tests/force_scalar.rs`
    /// compare the default engine against it, and `fft_traffic`'s
    /// `e2e_64` row times the same pair within one process.
    pub fn with_scalar_kernels() -> Self {
        let mut engine = Self::new();
        engine.scalar_kernels = true;
        engine
    }

    /// Routes every tensor this engine produces — half-spectra and real
    /// outputs — through `pools` (the paper's §VII-C recycling
    /// allocator). Leased buffers return to the pool when the produced
    /// tensors drop, so a steady-state transform loop performs **zero**
    /// allocation after its first pass, and transforms stay
    /// **bit-for-bit identical** to the unpooled engine (pool leases are
    /// zero-filled exactly like fresh buffers, an inverse's output
    /// leased without the fill is fully written before it is read, and
    /// scratch contents never reach an output). A consumed spectrum
    /// returns to whichever pool leased it, so spectra from another
    /// pool, or from none, are inverted without touching this pool's
    /// accounting.
    ///
    /// ```
    /// use znn_alloc::PoolSet;
    /// use znn_fft::FftEngine;
    /// use znn_tensor::{ops, Vec3};
    ///
    /// let pools = PoolSet::new();
    /// let engine = FftEngine::new().with_buffer_pools(pools.clone());
    /// let img = ops::random(Vec3::cube(8), 1);
    /// let warm = engine.irfft3(engine.rfft3(&img)); // first pass allocates
    /// drop(warm);
    /// let misses = pools.stats().misses();
    /// let again = engine.irfft3(engine.rfft3(&img)); // ...then only recycles
    /// assert_eq!(pools.stats().misses(), misses);
    /// assert!(again.max_abs_diff(&img) < 1e-5);
    /// ```
    pub fn with_buffer_pools(mut self, pools: Arc<PoolSet>) -> Self {
        self.pools = Some(pools);
        self
    }

    /// A zero-filled complex tensor, leased when pools are attached.
    fn lease_cimage(&self, shape: Vec3) -> CImage {
        znn_alloc::lease_cimage(self.pools.as_ref(), shape)
    }

    /// The packed stage's element loops.
    fn pack(&self) -> PackKernels {
        if self.scalar_kernels {
            PackKernels::SCALAR
        } else {
            PackKernels::DISPATCHED
        }
    }

    fn plan(&self, len: usize, dir: Direction) -> Arc<LinePlan> {
        // single lock pass: concurrent misses for the same key build the
        // plan once — the loser of the entry race never plans at all
        let mut plans = self.plans.lock();
        let plan = plans.entry((len, dir)).or_insert_with(|| {
            Arc::new(if self.scalar_kernels {
                LinePlan::scalar(len, dir)
            } else {
                LinePlan::new(len, dir)
            })
        });
        Arc::clone(plan)
    }

    /// Half-spectrum twiddles `e^{sign·2πik/n}` for `k ∈ 0..⌊n/2⌋+1`.
    fn rtwiddle(&self, n: usize, dir: Direction) -> Arc<Vec<Complex32>> {
        let mut cache = self.rtwiddles.lock();
        let tw = cache.entry((n, dir)).or_insert_with(|| {
            let sign = dir.sign();
            let tw: Vec<Complex32> = (0..n / 2 + 1)
                .map(|k| {
                    let ang = sign * 2.0 * std::f64::consts::PI * k as f64 / n as f64;
                    Complex32::new(ang.cos() as f32, ang.sin() as f32)
                })
                .collect();
            Arc::new(tw)
        });
        Arc::clone(tw)
    }

    /// Number of distinct 1D plans currently cached.
    pub fn cached_plans(&self) -> usize {
        self.plans.lock().len()
    }

    /// Transforms, in place, `lines` of `t` (every line along their
    /// axis, or a pruned subset). `lines` must come from
    /// [`Lattice::lines`] for `t`'s shape, with a lattice that fits it.
    ///
    /// Line `j` is the elements `lines.start(j) + k·stride`, `k < len`.
    /// On a plan with SIMD lines ([`LinePlan::has_lanes`]) the 8 lanes
    /// run across adjacent lines — adjacent packed-axis coordinates, so
    /// element `k` of 8 lines is 8 adjacent complexes — and each row of
    /// [`Lines::run`] lines runs in groups of [`LINE_BATCH`], the last
    /// `run mod 8` as one masked group, transformed in place by
    /// [`LinePlan::process_lanes`]. Other plans (scalar-pinned, non-AVX2
    /// hosts, the recursive fallback) gather groups of lines into a
    /// line-major buffer, transform it and scatter it back.
    fn transform_axis(&self, s: &mut Scratch, t: &mut CImage, dir: Direction, lines: Lines) {
        let shape = t.shape();
        let axis = lines.axis;
        let len = shape[axis];
        if len == 1 {
            return; // a length-1 DFT is the identity
        }
        let stride = [shape[1] * shape[2], shape[2], 1][axis];
        let plan = self.plan(len, dir);
        let data = t.as_mut_slice();
        let scratch = borrow_buf(&mut s.plan, plan.scratch_len());
        let n_lines = lines.len();
        if plan.has_lanes() {
            let run = lines.run();
            for r0 in (0..n_lines).step_by(run) {
                let row = lines.start(r0);
                debug_assert_eq!(lines.start(r0 + run - 1), row + run - 1);
                for l0 in (0..run).step_by(LINE_BATCH) {
                    let lanes = LINE_BATCH.min(run - l0);
                    plan.process_lanes(data, row + l0, stride, lanes, scratch);
                }
            }
            return;
        }
        let buf = borrow_buf(&mut s.line, LINE_BATCH * len);
        for g0 in (0..n_lines).step_by(LINE_BATCH) {
            let group = &mut buf[..LINE_BATCH.min(n_lines - g0) * len];
            for (j, line) in (g0..).zip(group.chunks_exact_mut(len)) {
                let start = lines.start(j);
                for (k, b) in line.iter_mut().enumerate() {
                    *b = data[start + k * stride];
                }
            }
            plan.process_with_scratch(group, scratch);
            for (j, line) in (g0..).zip(group.chunks_exact(len)) {
                let start = lines.start(j);
                for (k, b) in line.iter().enumerate() {
                    data[start + k * stride] = *b;
                }
            }
        }
    }

    /// Forward real-to-complex 3D FFT of `img` (unnormalized): the
    /// half-spectrum holding bins `0..=⌊m/2⌋` of the full DFT along the
    /// packed axis ([`Spectrum::packed_axis`] — `z` for volumes, `y` for
    /// flat `m_z == 1` images).
    ///
    /// The packed stage exploits Hermitian symmetry: an even-length real
    /// line of `n` samples is packed as `n/2` complex samples
    /// (`z[t] = x[2t] + i·x[2t+1]`), transformed at half length, and
    /// unpacked into `n/2+1` bins — half the FLOPs and half the spectrum
    /// memory of a full complex transform. Odd extents fall back to a full-length
    /// transform per line, truncated to the stored bins (`good_shape`
    /// keeps the packed axis even, so this path is cold). The remaining
    /// axes are c2c transforms over the (already halved) packed tensor.
    ///
    /// The transform runs on the calling thread; see the
    /// [threading model](FftEngine#threading-model).
    pub fn rfft3(&self, img: &Image) -> Spectrum {
        self.forward_lattice(img, Vec3::one(), img.shape())
    }

    /// Inverse of [`FftEngine::rfft3`], normalized so
    /// `irfft3(rfft3(x)) == x`: the full box of
    /// [`FftEngine::inverse_real`]. Consumes the spectrum: the complex
    /// stages run in place on its buffer, and the c2r stage writes each
    /// real line into a fresh output, leased without a zero-fill.
    pub fn irfft3(&self, spec: Spectrum) -> Image {
        let m = spec.full_shape();
        self.inverse_lattice(spec, Lattice::dense(Vec3::zero(), m))
    }

    /// The forward transform of the staged convolution API: the r2c
    /// transform of `img` zero-padded to `shape` (placed at the origin).
    ///
    /// The padded copy is never built: the packed stage reads its lines
    /// straight from `img`, and only the lines that hold data are
    /// transformed (see the crate docs' *Pruned transforms*).
    ///
    /// This is the per-node transform that convergent edges share (§IV);
    /// each memoized result is a [`Spectrum`] occupying roughly half the
    /// memory of the full complex transform.
    pub fn forward_padded(&self, img: &Image, shape: Vec3) -> Spectrum {
        self.forward_lattice(img, Vec3::one(), shape)
    }

    /// The inverse stage: transforms a frequency-domain accumulator back
    /// and extracts the real box of `shape` at `at` — the crop that turns
    /// circular convolution into valid/full linear convolution.
    ///
    /// Only the lines the crop reads are inverted, and each cropped run
    /// is written straight into a fresh `shape` output; the full box is
    /// [`FftEngine::irfft3`].
    pub fn inverse_real(&self, spec: Spectrum, at: Vec3, shape: Vec3) -> Image {
        self.inverse_lattice(spec, Lattice::dense(at, shape))
    }

    /// The r2c transform at shape `m` of the image that holds `src[i]` at
    /// `i·step` and zeros elsewhere — `rfft3(pad(dilate(src, step), m))`,
    /// read straight from `src`.
    ///
    /// Pruning: the packed stage transforms only the lines whose other
    /// two coordinates lie on the lattice (all others are zero); each
    /// later axis skips the lines whose not-yet-transformed coordinate is
    /// off the lattice, so the middle axis of a volume runs on
    /// `src_x · h` lines and only the last axis runs in full. A kept line
    /// runs the same butterflies on the same data as the unpruned
    /// transform; a skipped line stays at the lease's `+0`.
    ///
    /// Packing: sample `p` of the zero-padded packed-axis row is float
    /// `p` of its half-length line's interleaved storage. A source row
    /// at unit step is one copy into the line plus a zero tail; a
    /// dilated row (`step > 1` on the packed axis) is a strided walk.
    /// Each transformed line is unpacked into its `h` bins by
    /// `znn_simd::r2c_unpack` (the scalar twin on
    /// [`FftEngine::with_scalar_kernels`]).
    pub(crate) fn forward_lattice(&self, src: &Image, step: Vec3, m: Vec3) -> Spectrum {
        let lat = Lattice {
            at: Vec3::zero(),
            count: src.shape(),
            step,
            flip: false,
        };
        assert!(
            lat.fits(m),
            "image {} at step {step} does not fit transform shape {m}",
            src.shape()
        );
        let pa = Spectrum::packed_axis(m);
        let n = m[pa];
        let h = n / 2 + 1;
        let hs = Spectrum::half_shape(m);
        let mut half = self.lease_cimage(hs);
        // packed stage: source row j (contiguous, since every axis after
        // the packed one is unit) fills the h-bin row at lines.start(j);
        // the lattice fits `m`, so every such row lies inside `half`
        let lines = lat.lines(hs, pa, |_| true);
        let (e, sp) = (src.shape()[pa], step[pa]);
        let src = src.as_slice();
        with_scratch(|s| {
            let dst = half.as_mut_slice();
            if n.is_multiple_of(2) {
                let hn = n / 2;
                let plan = (hn > 1).then(|| self.plan(hn, Direction::Forward));
                let tw = self.rtwiddle(n, Direction::Forward);
                let scratch = borrow_buf(&mut s.plan, plan.as_ref().map_or(0, |p| p.scratch_len()));
                let buf = borrow_buf(&mut s.line, LINE_BATCH * hn);
                // pack LINE_BATCH lines per transform call so a full
                // group runs the Stockham batched SIMD path
                for g0 in (0..lines.len()).step_by(LINE_BATCH) {
                    let g = LINE_BATCH.min(lines.len() - g0);
                    let group = &mut buf[..g * hn];
                    // z[t] = x[2t] + i·x[2t+1] over the zero-padded row:
                    // sample p of the padded row is float p of the line
                    for (j, line) in (g0..).zip(group.chunks_exact_mut(hn)) {
                        let row = &src[j * e..(j + 1) * e];
                        let floats = znn_simd::complex_as_floats_mut(line);
                        if sp == 1 {
                            floats[..e].copy_from_slice(row);
                            floats[e..].fill(0.0);
                        } else {
                            floats.fill(0.0);
                            for (f, &v) in floats.iter_mut().step_by(sp).zip(row) {
                                *f = v;
                            }
                        }
                    }
                    if let Some(p) = &plan {
                        p.process_with_scratch(group, scratch);
                    }
                    for (j, line) in (g0..).zip(group.chunks_exact(hn)) {
                        (self.pack().unpack)(&mut dst[lines.start(j)..][..h], line, &tw);
                    }
                }
            } else {
                let plan = (n > 1).then(|| self.plan(n, Direction::Forward));
                let scratch = borrow_buf(&mut s.plan, plan.as_ref().map_or(0, |p| p.scratch_len()));
                let buf = borrow_buf(&mut s.line, n);
                for j in 0..lines.len() {
                    buf.fill(Complex32::default());
                    for (i, &v) in src[j * e..(j + 1) * e].iter().enumerate() {
                        buf[i * sp] = Complex32::new(v, 0.0);
                    }
                    if let Some(p) = &plan {
                        p.process_with_scratch(buf, scratch);
                    }
                    dst[lines.start(j)..][..h].copy_from_slice(&buf[..h]);
                }
            }
            // the remaining axes, in Z..X order so the inverse can mirror
            // the stage order exactly; an axis still untransformed (b < a)
            // is zero off the lattice
            for a in (0..3).rev().filter(|&a| a != pa) {
                let lines = lat.lines(hs, a, |b| b < a && b != pa);
                self.transform_axis(s, &mut half, Direction::Forward, lines);
            }
        });
        Spectrum::new(half, m)
    }

    /// The normalized inverse of `spec`, evaluated only on `lat`: output
    /// voxel `(i, j, k)` is the inverse transform at
    /// `(lat.coord(0, i), lat.coord(1, j), lat.coord(2, k))`, so the
    /// output has shape `lat.count`.
    ///
    /// Pruning mirrors [`FftEngine::forward_lattice`]: the first axis
    /// runs in full, each later axis skips the lines whose
    /// already-inverted coordinate is off the lattice, and the c2r stage
    /// runs only on lattice lines and writes each line's lattice samples
    /// straight into its output row. Every lattice, the full box
    /// included, writes every voxel of a fresh `lat.count` lease, taken
    /// without a zero-fill, and drops the spectrum.
    pub(crate) fn inverse_lattice(&self, spec: Spectrum, lat: Lattice) -> Image {
        let m = spec.full_shape();
        assert!(
            lat.fits(m),
            "output lattice {lat:?} does not fit transform shape {m}"
        );
        let pa = Spectrum::packed_axis(m);
        let n = m[pa];
        let mut half = spec.into_half();
        let hs = half.shape();
        // the non-packed inverse stages are unnormalized, each
        // contributing its extent; the packed stage contributes n/2
        // (even), n (odd) or 1 (unit)
        let zfac = if n == 1 {
            1
        } else if n.is_multiple_of(2) {
            n / 2
        } else {
            n
        };
        let scale = 1.0 / ((m.len() / n) * zfac) as f32;
        // every voxel of the output is written below before anything
        // reads it, so it is leased without a zero-fill
        let len = lat.count.len();
        let home = self.pools.as_ref().map(|p| Arc::clone(p.real_home()));
        let mut data = match &home {
            Some(h) => h.lease_empty(len),
            None => Vec::with_capacity(len),
        };
        with_scratch(|s| {
            for a in (0..3).filter(|&a| a != pa) {
                let lines = lat.lines(hs, a, |b| b < a && b != pa);
                self.transform_axis(s, &mut half, Direction::Inverse, lines);
            }
            // c2r stage: line j's h bins start at lines.start(j); its
            // lattice samples become output row j
            let lines = lat.lines(hs, pa, |_| true);
            let rows = &mut data.spare_capacity_mut()[..len];
            self.c2r_lines(s, half.as_slice(), rows, &lines, n, scale);
        });
        // SAFETY: `rows` were the first `len` spare elements of `data`
        // (capacity ≥ len, or the slice would have panicked), and
        // c2r_lines writes every element of `dst`: it asserts one row
        // per line and writes each row in full.
        unsafe { data.set_len(len) };
        let out = Image::from_vec(lat.count, data);
        match home {
            Some(home) => out.with_home(home),
            None => out,
        }
    }

    /// The c2r stage of [`FftEngine::inverse_lattice`]: for each line
    /// `j`, reads the `h` bins at `src[lines.start(j)..]`, inverts them
    /// at length `n`, and writes sample `lat.coord(pa, i)` times `scale`
    /// to `dst[j·count + i]` for `i < count = lat.count[pa]`, where `lat`
    /// is the lattice `lines` was taken from and `pa` the packed axis
    /// they run along. A dense lattice row is one scaled copy of `count`
    /// samples from `lat.at[pa]`; a dilated or flipped one is a strided
    /// walk. `dst` holds exactly one row per line, and every element of
    /// it is written.
    fn c2r_lines(
        &self,
        s: &mut Scratch,
        src: &[Complex32],
        dst: &mut [MaybeUninit<f32>],
        lines: &Lines,
        n: usize,
        scale: f32,
    ) {
        let h = n / 2 + 1;
        let (lat, pa) = (&lines.lat, lines.axis);
        let count = lat.count[pa];
        assert_eq!(dst.len(), lines.len() * count, "one output row per line");
        let slot = |j: usize| &src[lines.start(j)..][..h];
        if n.is_multiple_of(2) {
            let hn = n / 2;
            let plan = (hn > 1).then(|| self.plan(hn, Direction::Inverse));
            let tw = self.rtwiddle(n, Direction::Inverse);
            let scratch = borrow_buf(&mut s.plan, plan.as_ref().map_or(0, |p| p.scratch_len()));
            let buf = borrow_buf(&mut s.line, LINE_BATCH * hn);
            // repack LINE_BATCH slots per transform call so a full group
            // runs the Stockham batched SIMD path
            for g0 in (0..lines.len()).step_by(LINE_BATCH) {
                let g = LINE_BATCH.min(lines.len() - g0);
                let group = &mut buf[..g * hn];
                // z[k] = ze + i·zo repacks even/odd interleaving
                for (j, line) in (g0..).zip(group.chunks_exact_mut(hn)) {
                    (self.pack().repack)(line, slot(j), &tw);
                }
                if let Some(p) = &plan {
                    p.process_with_scratch(group, scratch);
                }
                // sample t of the real line is float t of the
                // transformed line (z[t/2].re for even t, .im for odd)
                let (at, step) = (lat.at[pa], lat.step[pa]);
                for (j, line) in (g0..).zip(group.chunks_exact(hn)) {
                    let floats = znn_simd::complex_as_floats(line);
                    let samples = floats[at..].iter().step_by(step);
                    let row = &mut dst[j * count..][..count];
                    if lat.flip {
                        // output i holds sample at + (count−1−i)·step
                        for (d, &v) in row.iter_mut().rev().zip(samples) {
                            d.write(v * scale);
                        }
                    } else if step == 1 {
                        (self.pack().scale_copy)(row, &floats[at..][..count], scale);
                    } else {
                        for (d, &v) in row.iter_mut().zip(samples) {
                            d.write(v * scale);
                        }
                    }
                }
            }
        } else {
            let plan = (n > 1).then(|| self.plan(n, Direction::Inverse));
            let scratch = borrow_buf(&mut s.plan, plan.as_ref().map_or(0, |p| p.scratch_len()));
            let buf = borrow_buf(&mut s.line, n);
            for j in 0..lines.len() {
                let slot = slot(j);
                buf[..h].copy_from_slice(slot);
                // Hermitian reconstruction of the dropped bins
                for k in 1..h {
                    buf[n - k] = slot[k].conj();
                }
                if let Some(p) = &plan {
                    p.process_with_scratch(buf, scratch);
                }
                for (i, d) in dst[j * count..][..count].iter_mut().enumerate() {
                    d.write(buf[lat.coord(pa, i)].re * scale);
                }
            }
        }
    }
}

impl Default for FftEngine {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use znn_tensor::{ops, pad};

    /// O(n²) reference DFT along `axis` (0 = x … 2 = z) for validation:
    /// bin `k` of every line is `Σ_j line[j]·e^{∓2πi·k·j/n}`.
    fn dft_axis_naive(t: &CImage, axis: usize, inverse: bool) -> CImage {
        let n = t.shape()[axis];
        let sign = if inverse { 1.0 } else { -1.0 };
        znn_tensor::Tensor3::from_fn(t.shape(), |at| {
            (0..n).fold(Complex32::default(), |acc, j| {
                let mut src = at;
                src[axis] = j;
                let ang = sign * 2.0 * std::f32::consts::PI * (at[axis] * j) as f32 / n as f32;
                acc + t.at(src) * Complex32::new(ang.cos(), ang.sin())
            })
        })
    }

    fn dft3_naive(t: &CImage) -> CImage {
        let mut out = t.clone();
        for axis in 0..3 {
            out = dft_axis_naive(&out, axis, false);
        }
        out
    }

    /// Normalized O(n²) inverse 3D DFT.
    fn idft3_naive(t: &CImage) -> CImage {
        let mut out = t.clone();
        for axis in 0..3 {
            out = dft_axis_naive(&out, axis, true);
        }
        let scale = 1.0 / out.len() as f32;
        ops::scale_c(&mut out, scale);
        out
    }

    fn max_cdiff(a: &CImage, b: &CImage) -> f32 {
        a.as_slice()
            .iter()
            .zip(b.as_slice())
            .map(|(x, y)| (x - y).norm())
            .fold(0.0, f32::max)
    }

    /// The half-spectrum a full complex transform implies: packed-axis
    /// bins `0..=⌊m/2⌋`.
    fn truncate_to_half(full: &CImage) -> CImage {
        let m = full.shape();
        let hs = Spectrum::half_shape(m);
        znn_tensor::Tensor3::from_fn(hs, |f| full.at(f))
    }

    /// The exact reference for `rfft3(img)`: the naive complex (c2c)
    /// DFT of `img`, truncated to the stored half-spectrum.
    fn naive_half(img: &Image) -> CImage {
        truncate_to_half(&dft3_naive(&ops::to_complex(img)))
    }

    #[test]
    fn fft3_matches_naive_dft_on_odd_shapes() {
        let engine = FftEngine::new();
        for shape in [Vec3::new(4, 3, 5), Vec3::new(1, 8, 2), Vec3::cube(6)] {
            let img = ops::random(shape, 11);
            let got = engine.rfft3(&img);
            let want = naive_half(&img);
            assert!(
                max_cdiff(got.half(), &want) < 1e-3,
                "mismatch on {shape}: {}",
                max_cdiff(got.half(), &want)
            );
        }
    }

    #[test]
    fn inverse_round_trips() {
        // through the staged API: pad into a larger transform shape,
        // invert, and crop the image back out
        let engine = FftEngine::new();
        for (shape, m) in [
            (Vec3::new(8, 4, 6), Vec3::new(8, 6, 10)),
            (Vec3::new(1, 16, 16), Vec3::new(1, 18, 20)),
            (Vec3::cube(5), Vec3::cube(6)),
        ] {
            let img = ops::random(shape, 3);
            let back = engine.inverse_real(engine.forward_padded(&img, m), Vec3::zero(), shape);
            assert!(back.max_abs_diff(&img) < 1e-5, "round trip failed {shape}");
        }
    }

    #[test]
    fn dc_bin_is_total_mass() {
        // the odd-extent fallback on each packed axis: z, y and a flat z
        let engine = FftEngine::new();
        for shape in [Vec3::cube(5), Vec3::new(4, 3, 1), Vec3::flat(6, 9)] {
            let img = ops::random(shape, 9);
            let dc = engine.rfft3(&img).half().at((0, 0, 0));
            assert!((dc.re - img.sum()).abs() < 1e-4, "{shape}");
            assert!(dc.im.abs() < 1e-4, "{shape}");
        }
    }

    #[test]
    fn plans_are_cached_per_length_and_direction() {
        let engine = FftEngine::new();
        let a = engine.rfft3(&ops::random(Vec3::cube(8), 1));
        // the packed z stage plans half length (4); y and x share 8
        assert_eq!(engine.cached_plans(), 2);
        drop(engine.irfft3(a));
        assert_eq!(engine.cached_plans(), 4); // the same two lengths, inverse
        let _ = engine.rfft3(&ops::random(Vec3::new(4, 6, 16), 1));
        assert_eq!(engine.cached_plans(), 5); // +6 fwd; 8 (16/2) and 4 cached
    }

    #[test]
    fn unit_axes_are_identity() {
        // 2D images (leading axis 1) must transform exactly like 2D FFTs
        let engine = FftEngine::new();
        let img = ops::random(Vec3::flat(4, 4), 5);
        assert!(max_cdiff(engine.rfft3(&img).half(), &naive_half(&img)) < 1e-3);
    }

    #[test]
    fn rfft3_matches_c2c_on_even_odd_and_unit_axes() {
        // parity with the naive complex DFT truncated to the stored
        // bins, on even/odd packed extents, volumes, flat 2D (packed
        // along y) and 1D rows (packed along x)
        let engine = FftEngine::new();
        for shape in [
            Vec3::cube(8),                // even z
            Vec3::new(4, 6, 10),          // even z, mixed extents
            Vec3::new(4, 3, 5),           // odd z
            Vec3::new(3, 4, 7),           // odd prime z
            Vec3::new(5, 5, 1),           // flat, odd y (fallback)
            Vec3::new(5, 6, 1),           // flat, even y (packed)
            Vec3::new(1, 8, 6),           // unit x
            Vec3::new(1, 1, 2),           // minimal even line
            Vec3::flat(6, 9),             // flat 2D, odd y
            Vec3::new(6, 1, 1),           // 1D row, packed along x
            Vec3::one(),                  // single voxel
        ] {
            let img = ops::random(shape, 21);
            let got = engine.rfft3(&img);
            assert_eq!(got.full_shape(), shape);
            assert_eq!(got.half().shape(), Spectrum::half_shape(shape));
            let want = naive_half(&img);
            assert!(
                max_cdiff(got.half(), &want) < 1e-3,
                "r2c mismatch on {shape}: {}",
                max_cdiff(got.half(), &want)
            );
        }
    }

    #[test]
    fn irfft3_round_trips_rfft3() {
        let engine = FftEngine::new();
        for shape in [
            Vec3::cube(8),
            Vec3::new(4, 6, 10),
            Vec3::new(4, 3, 5),
            Vec3::new(5, 5, 1),
            Vec3::new(5, 6, 1),
            Vec3::new(1, 16, 16),
            Vec3::new(2, 2, 2),
            Vec3::cube(5),
            Vec3::new(6, 1, 1),
            Vec3::one(),
        ] {
            let img = ops::random(shape, 31);
            let back = engine.irfft3(engine.rfft3(&img));
            assert!(
                back.max_abs_diff(&img) < 1e-5,
                "r2c round trip failed {shape}: {}",
                back.max_abs_diff(&img)
            );
        }
    }

    #[test]
    fn rfft3_dc_bin_is_total_mass() {
        let engine = FftEngine::new();
        let img = ops::random(Vec3::new(4, 6, 8), 41);
        let spec = engine.rfft3(&img);
        let dc = spec.half().at((0, 0, 0));
        assert!((dc.re - img.sum()).abs() < 1e-4);
        assert!(dc.im.abs() < 1e-4);
    }

    #[test]
    fn forward_padded_matches_c2c_truncation() {
        let engine = FftEngine::new();
        let img = ops::random(Vec3::cube(3), 2);
        for shape in [Vec3::cube(8), Vec3::new(6, 4, 10), Vec3::new(9, 5, 3)] {
            let a = engine.forward_padded(&img, shape);
            let want = naive_half(&pad::pad(&img, shape, Vec3::zero()));
            assert!(max_cdiff(a.half(), &want) < 1e-3, "{shape}");
        }
    }

    #[test]
    fn forward_padded_equals_manual_pad_then_rfft3() {
        let engine = FftEngine::new();
        let img = ops::random(Vec3::cube(3), 2);
        let shape = Vec3::cube(8);
        let a = engine.forward_padded(&img, shape);
        let b = engine.rfft3(&znn_tensor::pad::pad(&img, shape, Vec3::zero()));
        assert!(max_cdiff(a.half(), b.half()) == 0.0);
    }

    #[test]
    fn inverse_real_crops_like_c2c() {
        let engine = FftEngine::new();
        let m = Vec3::cube(8);
        let img = ops::random(m, 55);
        let spec = engine.rfft3(&img);
        let at = Vec3::new(2, 1, 0);
        let shape = Vec3::new(4, 5, 6);
        // exactly the crop of the full real inverse...
        let full = engine.irfft3(spec.clone());
        let a = engine.inverse_real(spec, at, shape);
        assert_eq!(a, pad::crop(&full, at, shape));
        // ...which is the naive c2c inverse of the naive spectrum
        let c2c = ops::to_real(&idft3_naive(&dft3_naive(&ops::to_complex(&img))));
        assert!(a.max_abs_diff(&pad::crop(&c2c, at, shape)) < 1e-4);
    }

    #[test]
    fn pruned_transforms_match_naive_dft() {
        // the pruned paths against the O(n²) DFT rather than the
        // engine's own full-box transform: a dilated source on a
        // volume (odd packed extent), a flat image and a 1D row
        let engine = FftEngine::new();
        for (k, s, m) in [
            (Vec3::new(2, 3, 2), Vec3::new(2, 1, 3), Vec3::new(6, 5, 5)),
            (Vec3::new(2, 3, 2), Vec3::new(3, 2, 2), Vec3::new(4, 6, 8)),
            (Vec3::new(3, 2, 1), Vec3::new(1, 3, 1), Vec3::new(5, 6, 1)),
            (Vec3::new(3, 1, 1), Vec3::new(4, 1, 1), Vec3::new(10, 1, 1)),
        ] {
            let w = ops::random(k, 5);
            let dense = pad::pad(&pad::dilate(&w, s), m, Vec3::zero());
            let got = engine.forward_lattice(&w, s, m);
            let want = naive_half(&dense);
            assert!(
                max_cdiff(got.half(), &want) < 1e-3,
                "forward k={k} s={s} m={m}"
            );
            // inverting the naive spectrum of an image recovers it on
            // every lattice: a crop, and the reflected kernel lattice
            let img = ops::random(m, 6);
            let spec = Spectrum::new(naive_half(&img), m);
            let at = Vec3::new(m[0] / 2, m[1] / 3, 0);
            let crop = m - at;
            let back = engine.inverse_real(spec.clone(), at, crop);
            assert!(
                back.max_abs_diff(&pad::crop(&img, at, crop)) < 1e-4,
                "crop m={m}"
            );
            let lattice = Lattice {
                at: Vec3::zero(),
                count: k,
                step: s,
                flip: true,
            };
            let back = engine.inverse_lattice(spec, lattice);
            let want = pad::flip(&pad::gather_strided(&img, Vec3::zero(), s, k));
            assert!(back.max_abs_diff(&want) < 1e-4, "lattice k={k} s={s} m={m}");
        }
    }

    #[test]
    fn multi_threaded_transforms_match_single_threaded_bitwise() {
        // transforms running at once on one engine work in their own
        // threads' scratch, so each must equal a serial engine's result
        // bit for bit; the shapes differ, so the sets grow apart
        let serial = FftEngine::new();
        let shared = FftEngine::new();
        let shapes = [Vec3::cube(32), Vec3::new(16, 32, 64), Vec3::new(128, 130, 1)];
        let imgs: Vec<Image> = shapes.iter().map(|&s| ops::random(s, 91)).collect();
        std::thread::scope(|sc| {
            for (img, shape) in imgs.iter().zip(shapes) {
                let (serial, shared) = (&serial, &shared);
                sc.spawn(move || {
                    for _ in 0..3 {
                        let s_spec = serial.rfft3(img);
                        let p_spec = shared.rfft3(img);
                        assert!(
                            max_cdiff(s_spec.half(), p_spec.half()) == 0.0,
                            "forward drift on {shape}"
                        );
                        let s_back = serial.irfft3(s_spec);
                        let p_back = shared.irfft3(p_spec);
                        assert!(
                            s_back.max_abs_diff(&p_back) == 0.0,
                            "inverse drift on {shape}"
                        );
                    }
                });
            }
        });
    }

    #[test]
    fn flat_images_pack_along_y() {
        // the mz == 1 fast path: an even y extent gets a true half
        // spectrum (y bins 0..=my/2) and round-trips
        let engine = FftEngine::new();
        let shape = Vec3::new(7, 10, 1);
        let img = ops::random(shape, 77);
        let spec = engine.rfft3(&img);
        assert_eq!(spec.half().shape(), Vec3::new(7, 6, 1));
        assert!(spec.stored_bins() < shape.len());
        let back = engine.irfft3(spec);
        assert!(back.max_abs_diff(&img) < 1e-5);
    }

    #[test]
    fn engine_is_shareable_across_threads() {
        let engine = std::sync::Arc::new(FftEngine::new());
        let handles: Vec<_> = (0..4)
            .map(|seed| {
                let engine = std::sync::Arc::clone(&engine);
                std::thread::spawn(move || {
                    let img = ops::random(Vec3::cube(8), seed);
                    let back = engine.irfft3(engine.rfft3(&img));
                    assert!(back.max_abs_diff(&img) < 1e-5);
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn concurrent_plan_misses_build_one_plan() {
        // the entry()-based plan cache must hand every racing thread
        // the same plan and count it once
        let engine = std::sync::Arc::new(FftEngine::new());
        let barrier = std::sync::Arc::new(std::sync::Barrier::new(8));
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let engine = std::sync::Arc::clone(&engine);
                let barrier = std::sync::Arc::clone(&barrier);
                std::thread::spawn(move || {
                    barrier.wait();
                    let img = ops::random(Vec3::cube(12), 7);
                    let _ = engine.rfft3(&img);
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        // lengths planned: 6 (packed z), 12 (y/x) forward -> exactly 2
        assert_eq!(engine.cached_plans(), 2);
    }
}
