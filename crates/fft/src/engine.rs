//! The 3D FFT engine and its plan cache.

use parking_lot::Mutex;
use rustfft::{Fft, FftPlanner};
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use znn_alloc::PoolSet;
use znn_tensor::lines::{Axis, LineSpec};
use znn_tensor::{ops, BufferSource, CImage, Complex32, Image, Spectrum, Vec3};

#[derive(Clone, Copy, PartialEq, Eq, Hash)]
enum Dir {
    Fwd,
    Inv,
}

#[derive(Default)]
struct ScratchBuffers {
    /// `Fft::process_with_scratch` scratch.
    plan: Vec<Complex32>,
    /// Gathered strided line (x/y axes) or packed r2c/c2r line.
    line: Vec<Complex32>,
    /// Recycling pool the buffers are leased from on growth and return
    /// to on drop ([`FftEngine::with_buffer_pools`]); `None` grows and
    /// frees plainly. Fallback scratch (more concurrent borrowers than
    /// slots) is always `None`, so transient buffers never strand pool
    /// accounting.
    home: Option<Arc<dyn BufferSource<Complex32>>>,
}

impl Drop for ScratchBuffers {
    fn drop(&mut self) {
        if let Some(home) = self.home.take() {
            for buf in [std::mem::take(&mut self.plan), std::mem::take(&mut self.line)] {
                if buf.capacity() > 0 {
                    home.recycle(buf);
                }
            }
        }
    }
}

/// Engine-owned scratch, one slot per potential concurrent line
/// worker: FFT in-place scratch, a line gather buffer, and the packed
/// line buffer of the r2c/c2r stages. Transforms are hot (one per
/// image per pass) — allocating these per call was measurable.
///
/// Slots replace the per-OS-thread TLS of the spawn-per-call era: with
/// a shared persistent pool, any worker (pool thread, scope owner, or
/// donated scheduler thread) may execute any engine's line chunk, so
/// scratch must belong to the *engine*, not the thread. A worker
/// `try_lock`s the first free slot for the duration of one chunk;
/// slots are never shared concurrently, two engines on one pool never
/// touch each other's buffers, and — because every buffer is fully
/// overwritten before it is read — slot assignment cannot affect a
/// single output bit.
struct ScratchPool {
    slots: Vec<Mutex<ScratchBuffers>>,
}

impl ScratchPool {
    /// One slot per worker the engine may fan out to, plus one for the
    /// calling thread.
    fn new(workers: usize) -> Self {
        ScratchPool {
            slots: (0..workers + 1)
                .map(|_| Mutex::new(ScratchBuffers::default()))
                .collect(),
        }
    }

    fn with<R>(&self, f: impl FnOnce(&mut ScratchBuffers) -> R) -> R {
        for s in &self.slots {
            if let Some(mut g) = s.try_lock() {
                return f(&mut g);
            }
        }
        // more concurrent borrowers than slots (many external threads
        // sharing one engine): fall back to a fresh buffer
        f(&mut ScratchBuffers::default())
    }
}

/// Grows (never shrinks below the request) `buf` to `n` elements and
/// returns the prefix. With a `home`, growth swaps in a fresh pool
/// lease and recycles the outgrown buffer — scratch contents are never
/// carried across calls (every caller fully overwrites the prefix
/// before reading it), so the swap is invisible.
fn borrow_buf<'a>(
    buf: &'a mut Vec<Complex32>,
    n: usize,
    home: Option<&Arc<dyn BufferSource<Complex32>>>,
) -> &'a mut [Complex32] {
    if buf.len() < n {
        match home {
            Some(h) => {
                let old = std::mem::replace(buf, h.lease(n));
                if old.capacity() > 0 {
                    h.recycle(old);
                }
            }
            None => buf.resize(n, Complex32::default()),
        }
    }
    &mut buf[..n]
}

/// A raw tensor base pointer that may cross thread boundaries.
///
/// Used by the parallel x/y line transforms: the lines along a strided
/// axis interleave in memory, so the buffer cannot be split into
/// contiguous `&mut` chunks per worker. Soundness rests on the line
/// decomposition instead: line `i` touches exactly the elements
/// `starts[i] + k·stride`, sets that are pairwise disjoint across lines,
/// and each worker is handed a disjoint range of line indices.
#[derive(Clone, Copy)]
struct SendPtr(*mut Complex32);
unsafe impl Send for SendPtr {}
unsafe impl Sync for SendPtr {}

impl SendPtr {
    /// The wrapped pointer. A method (rather than field access) so
    /// closures capture the `Send` wrapper, not the bare pointer —
    /// edition-2021 closures capture individual fields otherwise.
    fn get(self) -> *mut Complex32 {
        self.0
    }
}

/// Default minimum complex elements in a batched line transform before
/// it is split across pool workers. Below this, fork-join queueing
/// overhead outweighs the work; a 24³ stage stays serial, a 32³ stage
/// splits. Override with [`FftEngine::par_threshold`].
const PAR_MIN_ELEMS: usize = 16 * 1024;

/// Lines gathered per `process_with_scratch` call in the strided-axis
/// and r2c/c2r line loops. Matches the 8-line struct-of-arrays batch
/// the Stockham SIMD kernels consume, so a full group takes the
/// vectorized path; per-line results are bitwise identical either way,
/// making group boundaries (and worker-chunk interaction) unobservable.
const LINE_BATCH: usize = 8;

/// Plan cache: one planned 1D transform per (line length, direction).
type PlanMap = HashMap<(usize, Dir), Arc<dyn Fft<f32>>>;
/// r2c twiddle cache: one table per (packed-axis extent, direction).
type TwiddleMap = HashMap<(usize, Dir), Arc<Vec<Complex32>>>;

/// A 3D FFT for real-valued images, built from cached 1D `rustfft`
/// plans.
///
/// The engine is cheap to share (`Arc<FftEngine>`) and thread-safe: the
/// plan cache is behind a mutex that is only touched on cache misses;
/// the transforms themselves run lock-free on caller-owned buffers plus
/// per-thread scratch.
///
/// Two transform families are exposed:
///
/// * **r2c / c2r** ([`FftEngine::rfft3`], [`FftEngine::irfft3`] and the
///   staged [`FftEngine::forward_padded`] / [`FftEngine::inverse_real`])
///   — the production path. Real input makes the spectrum Hermitian, so
///   only `⌊m/2⌋+1` bins along the packed axis are stored
///   ([`Spectrum`]); the packed stage turns each even-length real line
///   into a half-length complex line (even/odd trick), so that stage
///   also costs half the FLOPs. The packed axis is the last non-unit
///   axis — `z` for volumes, `y` for flat (`m_z == 1`) images — whose
///   lines are always contiguous.
/// * **c2c** ([`FftEngine::fft3`], [`FftEngine::ifft3`]) — full complex
///   transforms, kept for parity tests and as the r2c baseline.
///
/// # Threading model
///
/// Transforms are decomposed per axis into batches of independent 1D
/// lines, and every batched line loop — the in-place contiguous `z`
/// pass, the `x`/`y` gather–transform–scatter passes, and the r2c pack /
/// c2r unpack passes — splits its lines into contiguous index ranges
/// across up to [`FftEngine::threads`] chunks, queued on a
/// **persistent pool** (`rayon::scope`): the engine's own pool when
/// built with [`FftEngine::with_pool`], else the process-global one.
/// No OS thread is spawned per transform; chunks run on pool workers,
/// on the calling thread (which executes pending chunks while it
/// waits), and on any threads *donated* to the pool by an outer task
/// scheduler.
///
/// Within each worker's range, lines are gathered in groups of 8 and
/// handed to the planned kernel in one call, which lets the Stockham
/// engine run its batched AVX2 lines (struct-of-arrays across the
/// group — see `znn-simd` and `docs/ARCHITECTURE.md` §7); batched and
/// per-line results are bitwise identical, so the grouping is purely a
/// speed lever.
///
/// The split is at line granularity, chunk boundaries are a pure
/// function of the worker count, scratch is slotted per concurrent
/// worker (`ScratchPool`) and fully overwritten before use, and each
/// line's arithmetic is identical regardless of which thread runs it —
/// so transforms are **bit-for-bit deterministic** and equal to the
/// single-threaded result for every worker count and pool. Batches
/// smaller than a threshold (~16k complex elements, see
/// [`FftEngine::par_threshold`]) stay serial —
/// `FftEngine::with_threads(1)` forces everything serial.
///
/// [`FftEngine::new`] sizes the fan-out to `available_parallelism`;
/// pass an explicit count with [`FftEngine::with_threads`], or a count
/// plus a shared pool with [`FftEngine::with_pool`] when composing
/// with an outer task-parallel scheduler so both draw on one thread
/// budget.
///
/// # Memory model
///
/// With [`FftEngine::with_buffer_pools`] every buffer the engine
/// allocates — half-spectra, padded transform inputs, cropped outputs,
/// per-slot scratch — is leased from a `znn_alloc::PoolSet` and
/// recycled when the produced tensor drops (`irfft3` additionally
/// re-adopts the spectrum's storage it consumed in place, so the c2r
/// buffer reuse survives pooling). A steady-state transform loop then
/// performs zero allocation; see the crate-level docs of `znn-alloc`
/// and the §VII-C discussion in `docs/ARCHITECTURE.md`.
///
/// # Example
///
/// ```
/// use znn_fft::FftEngine;
/// use znn_tensor::{ops, Vec3};
///
/// let engine = FftEngine::with_threads(1);
/// // 48 = 2^4·3 is 5-smooth: every line transform takes the
/// // iterative Stockham path
/// let img = ops::random(Vec3::cube(48), 7);
/// let spec = engine.rfft3(&img);
/// // the half-spectrum stores 25 of 48 packed-axis bins per line
/// assert_eq!(spec.half().shape(), Vec3::new(48, 48, 25));
/// // the inverse consumes its spectrum in place and round-trips
/// let back = engine.irfft3(spec);
/// assert!(back.max_abs_diff(&img) < 1e-5);
/// ```
pub struct FftEngine {
    planner: Mutex<FftPlanner<f32>>,
    plans: Mutex<PlanMap>,
    /// Memoized unpack/repack twiddles `e^{∓2πik/n}`, `k ∈ 0..⌊n/2⌋+1`,
    /// for the r2c/c2r packed stages, keyed by `(n, direction)`.
    rtwiddles: Mutex<TwiddleMap>,
    /// Worker cap for batched line transforms (≥ 1). Atomic so a
    /// planner can re-tune the fan-out of a live engine
    /// ([`FftEngine::set_threads`]); every value computes bit-identical
    /// transforms, so a concurrent change is always safe.
    threads: AtomicUsize,
    /// The pool line chunks are queued on; `None` targets the
    /// process-global pool.
    pool: Option<Arc<rayon::ThreadPool>>,
    /// When true, scopes spawn one OS thread per chunk instead of
    /// using the pool — the `--spawn-compare` benchmark baseline.
    spawn_per_call: bool,
    /// When true, every 1D line plan comes from
    /// `FftPlanner::plan_fft_recursive` instead of the iterative
    /// Stockham kernels — the `fft_traffic` benchmark baseline that
    /// keeps the recursive-vs-iterative gap measurable at the 3D
    /// transform level.
    recursive_kernels: bool,
    /// When true, every 1D line plan comes from
    /// `FftPlanner::plan_fft_scalar` — the Stockham kernels with the
    /// batched SIMD lines pinned off. Differential-test and
    /// `fft_traffic` baseline for the SIMD path; output is bitwise
    /// identical to the default engine.
    scalar_kernels: bool,
    /// Minimum complex elements in a batch before it is split.
    par_min_elems: usize,
    /// Slotted per-worker scratch (see [`ScratchPool`]).
    scratch: ScratchPool,
    /// Recycling pools every transform buffer is leased from when set
    /// ([`FftEngine::with_buffer_pools`]): half-spectra, padded inputs,
    /// cropped outputs, per-slot scratch. `None` allocates plainly.
    pools: Option<Arc<PoolSet>>,
}

impl FftEngine {
    /// A new engine with an empty plan cache, parallelizing line
    /// transforms over up to `available_parallelism` workers.
    pub fn new() -> Self {
        let threads = std::thread::available_parallelism()
            .map(|v| v.get())
            .unwrap_or(1);
        Self::with_threads(threads)
    }

    /// A new engine that splits batched line transforms over at most
    /// `threads` workers of the process-global pool.
    /// `with_threads(1)` disables intra-transform parallelism
    /// entirely.
    pub fn with_threads(threads: usize) -> Self {
        let threads = threads.max(1);
        FftEngine {
            planner: Mutex::new(FftPlanner::new()),
            plans: Mutex::new(HashMap::new()),
            rtwiddles: Mutex::new(HashMap::new()),
            threads: AtomicUsize::new(threads),
            pool: None,
            spawn_per_call: false,
            recursive_kernels: false,
            scalar_kernels: false,
            par_min_elems: PAR_MIN_ELEMS,
            scratch: ScratchPool::new(threads),
            pools: None,
        }
    }

    /// A new engine whose line chunks are queued on `pool` — share one
    /// pool (and so one thread budget) between several engines and an
    /// outer task scheduler whose workers donate to it. Results are
    /// bit-for-bit identical to every other configuration with any
    /// `threads` ≥ 2 fan-out, and to `with_threads(1)` serially.
    pub fn with_pool(threads: usize, pool: Arc<rayon::ThreadPool>) -> Self {
        let mut engine = Self::with_threads(threads);
        engine.pool = Some(pool);
        engine
    }

    /// A new engine that spawns one short-lived OS thread per line
    /// chunk, bypassing the persistent pool. **Benchmark baseline
    /// only** (`fft_traffic --spawn-compare`): it reproduces the
    /// pre-pool shim behaviour so the spawn overhead stays measurable.
    pub fn with_spawn_per_call(threads: usize) -> Self {
        let mut engine = Self::with_threads(threads);
        engine.spawn_per_call = true;
        engine
    }

    /// A new single-threaded engine whose 1D line plans all come from
    /// the *recursive mixed-radix* fallback, bypassing the iterative
    /// Stockham kernels. **Benchmark baseline only** (`fft_traffic`):
    /// it reproduces the pre-mixed-radix behaviour for 5-smooth
    /// non-power-of-two lengths (48, 60, 120…) so the kernel win stays
    /// measurable at the 3D r2c transform level, not just per 1D line.
    pub fn with_recursive_kernels() -> Self {
        let mut engine = Self::with_threads(1);
        engine.recursive_kernels = true;
        engine
    }

    /// A new single-threaded engine whose 1D line plans pin the
    /// Stockham kernels to their scalar per-line path, bypassing the
    /// batched SIMD lines. **Differential-test and benchmark baseline
    /// only** (`fft_traffic` records the SIMD-vs-scalar delta with
    /// it): results are bitwise identical to the default engine — the
    /// vector butterflies perform the same IEEE ops in the same order
    /// — so this switch can only ever change speed.
    pub fn with_scalar_kernels() -> Self {
        let mut engine = Self::with_threads(1);
        engine.scalar_kernels = true;
        engine
    }

    /// Overrides the minimum batch size (complex elements) before a
    /// line loop is split across workers. The default (~16k) keeps
    /// small transforms serial; benchmarks lower it to expose pure
    /// fork-join overhead.
    pub fn par_threshold(mut self, elems: usize) -> Self {
        self.par_min_elems = elems.max(1);
        self
    }

    /// Routes every buffer this engine allocates — half-spectra, padded
    /// transform inputs, cropped outputs, per-slot scratch — through
    /// `pools` (the paper's §VII-C recycling allocator). Leased buffers
    /// return to the pool when the produced tensors drop, so a
    /// steady-state transform loop performs **zero** allocation after
    /// its first pass, and transforms stay **bit-for-bit identical** to
    /// the unpooled engine (pool leases are zero-filled exactly like
    /// fresh buffers, and slot/chunk assignment never affects values).
    ///
    /// Use **one `PoolSet` per pipeline**: a spectrum leased from a
    /// *different* pool and consumed by this engine's [`FftEngine::irfft3`]
    /// is treated as foreign — transformed correctly, but its storage
    /// is detached rather than adopted (adopting never-leased bytes
    /// would corrupt this pool's accounting), so the originating pool
    /// keeps the bytes counted in use and re-misses that class next
    /// round. Correctness is unaffected; the flat-footprint guarantee
    /// only holds within a single pool.
    ///
    /// ```
    /// use znn_alloc::PoolSet;
    /// use znn_fft::FftEngine;
    /// use znn_tensor::{ops, Vec3};
    ///
    /// let pools = PoolSet::new();
    /// let engine = FftEngine::with_threads(1).with_buffer_pools(pools.clone());
    /// let img = ops::random(Vec3::cube(8), 1);
    /// let warm = engine.irfft3(engine.rfft3(&img)); // first pass allocates
    /// drop(warm);
    /// let misses = pools.stats().misses();
    /// let again = engine.irfft3(engine.rfft3(&img)); // ...then only recycles
    /// assert_eq!(pools.stats().misses(), misses);
    /// assert!(again.max_abs_diff(&img) < 1e-5);
    /// ```
    pub fn with_buffer_pools(mut self, pools: Arc<PoolSet>) -> Self {
        for slot in &self.scratch.slots {
            slot.lock().home = Some(Arc::clone(pools.complex_home()));
        }
        self.pools = Some(pools);
        self
    }

    /// The recycling pools this engine leases buffers from, if any.
    pub fn buffer_pools(&self) -> Option<&Arc<PoolSet>> {
        self.pools.as_ref()
    }

    /// A zero-filled complex tensor, leased when pools are attached.
    fn lease_cimage(&self, shape: Vec3) -> CImage {
        znn_alloc::lease_cimage(self.pools.as_ref(), shape)
    }

    /// A zero-filled real tensor, leased when pools are attached.
    fn lease_image(&self, shape: Vec3) -> Image {
        znn_alloc::lease_image(self.pools.as_ref(), shape)
    }

    /// The worker cap for batched line transforms.
    pub fn threads(&self) -> usize {
        self.threads.load(Ordering::Relaxed)
    }

    /// Re-tunes the worker cap of a live engine (clamped to ≥ 1).
    ///
    /// Safe at any time, including while transforms are in flight:
    /// the fan-out only partitions line batches, and every partition
    /// computes bit-identical results (each line is transformed by
    /// the same serial kernel regardless of which chunk owns it).
    /// Scratch is slotted per concurrent borrower with a graceful
    /// fallback, so raising the cap above the construction-time value
    /// costs at most a fresh scratch allocation per extra chunk.
    ///
    /// This is the knob the `znn-plan` calibrator turns when measured
    /// round times drift from the model's predictions.
    pub fn set_threads(&self, threads: usize) {
        self.threads.store(threads.max(1), Ordering::Relaxed);
    }

    /// Workers to split a batch of `lines` lines of `line_len` complex
    /// elements across: 1 for small batches (fork overhead dominates),
    /// never more than the line count.
    fn workers_for(&self, lines: usize, line_len: usize) -> usize {
        let threads = self.threads.load(Ordering::Relaxed);
        if threads <= 1 || lines * line_len < self.par_min_elems {
            1
        } else {
            threads.min(lines)
        }
    }

    /// Runs `f` inside the fork-join scope this engine is configured
    /// for: its shared pool, the process-global pool, or (benchmark
    /// baseline only) a spawn-per-call scope.
    fn in_scope<'scope, R>(&self, f: impl FnOnce(&rayon::Scope<'scope>) -> R) -> R {
        if self.spawn_per_call {
            rayon::scope_spawn_per_call(f)
        } else {
            match &self.pool {
                Some(p) => p.scope(f),
                None => rayon::scope(f),
            }
        }
    }

    fn plan(&self, len: usize, dir: Dir) -> Arc<dyn Fft<f32>> {
        // single lock pass: concurrent misses for the same key build the
        // plan once — the loser of the entry race never plans at all
        let mut plans = self.plans.lock();
        match plans.entry((len, dir)) {
            Entry::Occupied(e) => Arc::clone(e.get()),
            Entry::Vacant(e) => {
                let mut planner = self.planner.lock();
                let fdir = match dir {
                    Dir::Fwd => rustfft::FftDirection::Forward,
                    Dir::Inv => rustfft::FftDirection::Inverse,
                };
                let plan = if self.recursive_kernels {
                    planner.plan_fft_recursive(len, fdir)
                } else if self.scalar_kernels {
                    planner.plan_fft_scalar(len, fdir)
                } else {
                    planner.plan_fft(len, fdir)
                };
                Arc::clone(e.insert(plan))
            }
        }
    }

    /// Half-spectrum twiddles `e^{sign·2πik/n}` for `k ∈ 0..⌊n/2⌋+1`.
    fn rtwiddle(&self, n: usize, dir: Dir) -> Arc<Vec<Complex32>> {
        let mut cache = self.rtwiddles.lock();
        match cache.entry((n, dir)) {
            Entry::Occupied(e) => Arc::clone(e.get()),
            Entry::Vacant(e) => {
                let sign = match dir {
                    Dir::Fwd => -1.0f64,
                    Dir::Inv => 1.0f64,
                };
                let tw: Vec<Complex32> = (0..n / 2 + 1)
                    .map(|k| {
                        let ang = sign * 2.0 * std::f64::consts::PI * k as f64 / n as f64;
                        Complex32::new(ang.cos() as f32, ang.sin() as f32)
                    })
                    .collect();
                Arc::clone(e.insert(Arc::new(tw)))
            }
        }
    }

    /// Number of distinct 1D plans currently cached.
    pub fn cached_plans(&self) -> usize {
        self.plans.lock().len()
    }

    fn transform_axis(&self, t: &mut CImage, axis: Axis, dir: Dir) {
        let shape = t.shape();
        let len = shape[axis as usize];
        if len == 1 {
            return; // a length-1 DFT is the identity
        }
        let plan = self.plan(len, dir);
        let count = t.len() / len;
        let workers = self.workers_for(count, len);
        if axis == Axis::Z {
            // contiguous lines: the buffer splits into per-worker chunks
            // at line boundaries, each processed in place
            if workers <= 1 {
                self.scratch.with(|s| {
                    let scratch = borrow_buf(&mut s.plan, plan.get_inplace_scratch_len(), s.home.as_ref());
                    plan.process_with_scratch(t.as_mut_slice(), scratch);
                });
            } else {
                let per = count.div_ceil(workers);
                let plan = &plan;
                let scratch_pool = &self.scratch;
                self.in_scope(|sc| {
                    for chunk in t.as_mut_slice().chunks_mut(per * len) {
                        sc.spawn(move |_| {
                            scratch_pool.with(|s| {
                                let scratch =
                                    borrow_buf(&mut s.plan, plan.get_inplace_scratch_len(), s.home.as_ref());
                                plan.process_with_scratch(chunk, scratch);
                            });
                        });
                    }
                });
            }
            return;
        }
        let spec = LineSpec::new(shape, axis);
        if workers <= 1 {
            // gather lines in groups of LINE_BATCH so a full group runs
            // the Stockham kernels' batched SIMD path in one call
            self.scratch.with(|s| {
                let scratch = borrow_buf(&mut s.plan, plan.get_inplace_scratch_len(), s.home.as_ref());
                let buf = borrow_buf(&mut s.line, LINE_BATCH * spec.len, s.home.as_ref());
                let mut i = 0;
                while i < spec.count {
                    let g = LINE_BATCH.min(spec.count - i);
                    let group = &mut buf[..g * spec.len];
                    for (j, line) in group.chunks_exact_mut(spec.len).enumerate() {
                        spec.read_line(t, i + j, line);
                    }
                    plan.process_with_scratch(group, scratch);
                    for (j, line) in group.chunks_exact(spec.len).enumerate() {
                        spec.write_line(t, i + j, line);
                    }
                    i += g;
                }
            });
            return;
        }
        // strided lines interleave, so workers share the buffer through a
        // raw base pointer and own disjoint ranges of line indices
        let base = SendPtr(t.as_mut_slice().as_mut_ptr());
        let per = count.div_ceil(workers);
        let plan = &plan;
        let spec = &spec;
        let scratch_pool = &self.scratch;
        self.in_scope(|sc| {
            let mut lo = 0;
            while lo < count {
                let hi = (lo + per).min(count);
                sc.spawn(move |_| {
                    let ptr = base.get();
                    scratch_pool.with(|s| {
                        let scratch = borrow_buf(&mut s.plan, plan.get_inplace_scratch_len(), s.home.as_ref());
                        let buf = borrow_buf(&mut s.line, LINE_BATCH * spec.len, s.home.as_ref());
                        let mut i = lo;
                        while i < hi {
                            let g = LINE_BATCH.min(hi - i);
                            let group = &mut buf[..g * spec.len];
                            // SAFETY: line i touches exactly the elements
                            // starts[i] + k·stride, k < len — pairwise
                            // disjoint across lines, and this worker's
                            // line range [lo, hi) is disjoint from every
                            // other worker's. All offsets are in bounds
                            // by LineSpec's construction.
                            for (j, line) in group.chunks_exact_mut(spec.len).enumerate() {
                                let mut p = spec.starts()[i + j];
                                for b in line.iter_mut() {
                                    unsafe { *b = *ptr.add(p) };
                                    p += spec.stride;
                                }
                            }
                            plan.process_with_scratch(group, scratch);
                            for (j, line) in group.chunks_exact(spec.len).enumerate() {
                                let mut p = spec.starts()[i + j];
                                for b in line.iter() {
                                    unsafe { *ptr.add(p) = *b };
                                    p += spec.stride;
                                }
                            }
                            i += g;
                        }
                    });
                });
                lo = hi;
            }
        });
    }

    /// In-place forward 3D FFT (unnormalized, like fftw/MKL).
    pub fn fft3(&self, t: &mut CImage) {
        for axis in Axis::ALL {
            self.transform_axis(t, axis, Dir::Fwd);
        }
    }

    /// In-place inverse 3D FFT, normalized so `ifft3(fft3(x)) == x`.
    pub fn ifft3(&self, t: &mut CImage) {
        for axis in Axis::ALL {
            self.transform_axis(t, axis, Dir::Inv);
        }
        ops::scale_c(t, 1.0 / t.len() as f32);
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
    /// memory of the c2c path. Odd extents fall back to a full-length
    /// transform per line, truncated to the stored bins (`good_shape`
    /// keeps the packed axis even, so this path is cold). The remaining
    /// axes are c2c transforms over the (already halved) packed tensor.
    ///
    /// Lines are split across the engine's workers; see the
    /// [threading model](FftEngine#threading-model).
    pub fn rfft3(&self, img: &Image) -> Spectrum {
        let m = img.shape();
        let pa = Spectrum::packed_axis(m);
        let n = m[pa];
        let h = n / 2 + 1;
        let mut half = self.lease_cimage(Spectrum::half_shape(m));
        let lines = m.len() / n;
        if n == 1 {
            // the all-unit shape: a 1-point DFT is the identity
            for (d, s) in half.as_mut_slice().iter_mut().zip(img.as_slice()) {
                *d = Complex32::new(*s, 0.0);
            }
        } else if n.is_multiple_of(2) {
            let hn = n / 2;
            let plan = (hn > 1).then(|| self.plan(hn, Dir::Fwd));
            let tw = self.rtwiddle(n, Dir::Fwd);
            let pack = |src_all: &[f32], dst_all: &mut [Complex32]| {
                // pack LINE_BATCH lines per transform call so a full
                // group runs the Stockham batched SIMD path
                self.scratch.with(|s| {
                    let scratch = borrow_buf(
                        &mut s.plan,
                        plan.as_ref().map_or(0, |p| p.get_inplace_scratch_len()),
                        s.home.as_ref(),
                    );
                    let buf = borrow_buf(&mut s.line, LINE_BATCH * hn, s.home.as_ref());
                    for (sg, dg) in src_all
                        .chunks(LINE_BATCH * n)
                        .zip(dst_all.chunks_mut(LINE_BATCH * h))
                    {
                        let g = sg.len() / n;
                        let group = &mut buf[..g * hn];
                        for (src, line) in
                            sg.chunks_exact(n).zip(group.chunks_exact_mut(hn))
                        {
                            for (t, b) in line.iter_mut().enumerate() {
                                *b = Complex32::new(src[2 * t], src[2 * t + 1]);
                            }
                        }
                        if let Some(p) = &plan {
                            p.process_with_scratch(group, scratch);
                        }
                        for (dst, line) in
                            dg.chunks_exact_mut(h).zip(group.chunks_exact(hn))
                        {
                            for (k, d) in dst.iter_mut().enumerate() {
                                let zk = line[k % hn];
                                let zc = line[(hn - k) % hn].conj();
                                let ze = (zk + zc) * 0.5;
                                let zo = (zk - zc) * Complex32::new(0.0, -0.5);
                                *d = ze + tw[k] * zo;
                            }
                        }
                    }
                });
            };
            self.par_line_chunks(
                self.workers_for(lines, n),
                lines,
                img.as_slice(),
                n,
                half.as_mut_slice(),
                h,
                &pack,
            );
        } else {
            let plan = self.plan(n, Dir::Fwd);
            let pack = |src_all: &[f32], dst_all: &mut [Complex32]| {
                self.scratch.with(|s| {
                    let scratch = borrow_buf(&mut s.plan, plan.get_inplace_scratch_len(), s.home.as_ref());
                    let buf = borrow_buf(&mut s.line, n, s.home.as_ref());
                    for (src, dst) in src_all.chunks_exact(n).zip(dst_all.chunks_exact_mut(h)) {
                        for (b, v) in buf.iter_mut().zip(src) {
                            *b = Complex32::new(*v, 0.0);
                        }
                        plan.process_with_scratch(buf, scratch);
                        dst.copy_from_slice(&buf[..h]);
                    }
                });
            };
            self.par_line_chunks(
                self.workers_for(lines, n),
                lines,
                img.as_slice(),
                n,
                half.as_mut_slice(),
                h,
                &pack,
            );
        }
        // the remaining (un-packed) axes, in Z..X order so the inverse
        // can mirror the stage order exactly
        for axis in Axis::ALL.into_iter().rev() {
            if axis as usize != pa {
                self.transform_axis(&mut half, axis, Dir::Fwd);
            }
        }
        Spectrum::new(half, m)
    }

    /// Inverse of [`FftEngine::rfft3`], normalized so
    /// `irfft3(rfft3(x)) == x`. Consumes the spectrum: the inverse is
    /// computed in place on its buffer, and the real output *reuses that
    /// buffer's storage* — the interleaved unpack writes each real line
    /// into the (strictly larger) slot its complex bins occupied, then
    /// one compaction pass packs the lines tight. No per-call output
    /// allocation.
    pub fn irfft3(&self, spec: Spectrum) -> Image {
        let m = spec.full_shape();
        let pa = Spectrum::packed_axis(m);
        let n = m[pa];
        let h = n / 2 + 1;
        // Re-adopt the output storage into the pool only when the
        // incoming spectrum's buffer was leased from THIS engine's own
        // pool: the lease is still counted in the pool's bytes_in_use
        // (into_vec below detaches without touching the counters), so
        // the eventual recycle balances it exactly. Adopting a raw or
        // foreign-pool buffer instead would push never-leased bytes at
        // the pool and corrupt its accounting.
        let adopt_home = match &self.pools {
            Some(p) => spec
                .half()
                .home()
                .is_some_and(|h| Arc::ptr_eq(h, p.complex_home()))
                .then(|| Arc::clone(p.real_home())),
            None => None,
        };
        let mut half = spec.into_half();
        for axis in Axis::ALL {
            if axis as usize != pa {
                self.transform_axis(&mut half, axis, Dir::Inv);
            }
        }
        let lines = m.len() / n;
        // the non-packed inverse stages above are unnormalized, each
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
        // In-place c2r: view the half buffer as interleaved f32 storage.
        // Line i's h complex bins occupy the 2h-float "slot" at 2·i·h;
        // its n real outputs (n ≤ 2h-1) are written back into the same
        // slot's prefix after the bins are consumed into scratch, so
        // parallel workers stay inside their own slots and nothing
        // allocates.
        let mut data = complex_vec_into_reals(half.into_vec());
        if n == 1 {
            data[0] *= scale; // single voxel (slot [re, im], output [re])
        } else if n.is_multiple_of(2) {
            let hn = n / 2;
            let plan = (hn > 1).then(|| self.plan(hn, Dir::Inv));
            let tw = self.rtwiddle(n, Dir::Inv);
            let unpack = |slots: &mut [f32]| {
                // repack LINE_BATCH slots per transform call so a full
                // group runs the Stockham batched SIMD path
                self.scratch.with(|s| {
                    let scratch = borrow_buf(
                        &mut s.plan,
                        plan.as_ref().map_or(0, |p| p.get_inplace_scratch_len()),
                        s.home.as_ref(),
                    );
                    let buf = borrow_buf(&mut s.line, LINE_BATCH * hn, s.home.as_ref());
                    for sg in slots.chunks_mut(LINE_BATCH * 2 * h) {
                        let g = sg.len() / (2 * h);
                        let group = &mut buf[..g * hn];
                        for (slot, line) in
                            sg.chunks_exact(2 * h).zip(group.chunks_exact_mut(hn))
                        {
                            for (k, b) in line.iter_mut().enumerate() {
                                let xk = Complex32::new(slot[2 * k], slot[2 * k + 1]);
                                let xc =
                                    Complex32::new(slot[2 * (hn - k)], -slot[2 * (hn - k) + 1]);
                                let ze = (xk + xc) * 0.5;
                                let zo = (xk - xc) * 0.5 * tw[k];
                                // z[k] = ze + i·zo repacks even/odd interleaving
                                *b = Complex32::new(ze.re - zo.im, ze.im + zo.re);
                            }
                        }
                        if let Some(p) = &plan {
                            p.process_with_scratch(group, scratch);
                        }
                        for (slot, line) in
                            sg.chunks_exact_mut(2 * h).zip(group.chunks_exact(hn))
                        {
                            for (t, b) in line.iter().enumerate() {
                                slot[2 * t] = b.re * scale;
                                slot[2 * t + 1] = b.im * scale;
                            }
                        }
                    }
                });
            };
            self.par_slot_chunks(self.workers_for(lines, n), lines, &mut data, 2 * h, &unpack);
        } else {
            let plan = self.plan(n, Dir::Inv);
            let unpack = |slots: &mut [f32]| {
                self.scratch.with(|s| {
                    let scratch = borrow_buf(&mut s.plan, plan.get_inplace_scratch_len(), s.home.as_ref());
                    let buf = borrow_buf(&mut s.line, n, s.home.as_ref());
                    for slot in slots.chunks_exact_mut(2 * h) {
                        for (k, b) in buf[..h].iter_mut().enumerate() {
                            *b = Complex32::new(slot[2 * k], slot[2 * k + 1]);
                        }
                        // Hermitian reconstruction of the dropped bins
                        for k in 1..h {
                            buf[n - k] =
                                Complex32::new(slot[2 * k], -slot[2 * k + 1]);
                        }
                        plan.process_with_scratch(buf, scratch);
                        for (d, b) in slot[..n].iter_mut().zip(buf.iter()) {
                            *d = b.re * scale;
                        }
                    }
                });
            };
            self.par_slot_chunks(self.workers_for(lines, n), lines, &mut data, 2 * h, &unpack);
        }
        // compact the per-slot real lines into a dense image: line i
        // moves left from 2·i·h to i·n, so a forward pass never
        // overwrites an unmoved line
        for i in 1..lines {
            data.copy_within(2 * i * h..2 * i * h + n, i * n);
        }
        data.truncate(m.len());
        let out = Image::from_vec(m, data);
        // The storage began life as the spectrum's complex lease and was
        // detached by the reinterpretation; re-adopt it (as so many f32
        // units) so it rejoins the same chunk pool when the image drops.
        match adopt_home {
            Some(home) => out.with_home(home),
            None => out,
        }
    }

    /// The forward transform of the staged convolution API: zero-pads a
    /// real image to `shape` (placing it at the origin) and takes its
    /// r2c transform.
    ///
    /// This is the per-node transform that convergent edges share (§IV);
    /// each memoized result is a [`Spectrum`] occupying roughly half the
    /// memory of the full complex transform.
    pub fn forward_padded(&self, img: &Image, shape: Vec3) -> Spectrum {
        assert!(
            img.shape().le(shape),
            "image {} does not fit transform shape {shape}",
            img.shape()
        );
        if img.shape() == shape {
            self.rfft3(img)
        } else {
            // the padded copy is transient: leased from the pool (zeroed
            // like any lease) and recycled the moment the transform ends
            let mut padded = self.lease_image(shape);
            znn_tensor::pad::pad_into(img, &mut padded, Vec3::zero());
            self.rfft3(&padded)
        }
    }

    /// c2c variant of [`FftEngine::forward_padded`], kept as the parity
    /// baseline (tests, benches).
    pub fn forward_padded_c2c(&self, img: &Image, shape: Vec3) -> CImage {
        assert!(
            img.shape().le(shape),
            "image {} does not fit transform shape {shape}",
            img.shape()
        );
        let mut c = if img.shape() == shape {
            ops::to_complex(img)
        } else {
            ops::to_complex(&znn_tensor::pad::pad(img, shape, Vec3::zero()))
        };
        self.fft3(&mut c);
        c
    }

    /// The inverse stage: transforms a frequency-domain accumulator back
    /// and extracts the real box of `shape` at `at` — the crop that turns
    /// circular convolution into valid/full linear convolution.
    pub fn inverse_real(&self, spec: Spectrum, at: Vec3, shape: Vec3) -> Image {
        let real = self.irfft3(spec);
        if at == Vec3::zero() && shape == real.shape() {
            real
        } else {
            let mut out = self.lease_image(shape);
            znn_tensor::pad::crop_into(&real, at, &mut out);
            out
        }
    }

    /// c2c variant of [`FftEngine::inverse_real`], kept as the parity
    /// baseline.
    pub fn inverse_real_c2c(&self, mut spec: CImage, at: Vec3, shape: Vec3) -> Image {
        self.ifft3(&mut spec);
        let real = ops::to_real(&spec);
        if at == Vec3::zero() && shape == real.shape() {
            real
        } else {
            znn_tensor::pad::crop(&real, at, shape)
        }
    }
}

impl FftEngine {
    /// Runs `work` over a batch of `lines` lines that are contiguous in
    /// both buffers (`src_len` reals in, `dst_len` complexes out per
    /// line): serially for one worker, else split into per-worker
    /// chunks of whole lines on the engine's pool. The chunk boundaries
    /// depend only on `(workers, lines)`, and each line's arithmetic is
    /// independent of its chunk, so the result is identical for every
    /// worker count.
    #[allow(clippy::too_many_arguments)]
    fn par_line_chunks(
        &self,
        workers: usize,
        lines: usize,
        src: &[f32],
        src_len: usize,
        dst: &mut [Complex32],
        dst_len: usize,
        work: &(impl Fn(&[f32], &mut [Complex32]) + Sync),
    ) {
        if workers <= 1 {
            work(src, dst);
            return;
        }
        let per = lines.div_ceil(workers);
        self.in_scope(|sc| {
            for (s_chunk, d_chunk) in src
                .chunks(per * src_len)
                .zip(dst.chunks_mut(per * dst_len))
            {
                sc.spawn(move |_| work(s_chunk, d_chunk));
            }
        });
    }

    /// In-place variant of [`FftEngine::par_line_chunks`] for the c2r
    /// unpack: the buffer is one f32 slab of `lines` slots of
    /// `slot_len` floats each, split across workers at slot boundaries.
    fn par_slot_chunks(
        &self,
        workers: usize,
        lines: usize,
        data: &mut [f32],
        slot_len: usize,
        work: &(impl Fn(&mut [f32]) + Sync),
    ) {
        if workers <= 1 {
            work(data);
            return;
        }
        let per = lines.div_ceil(workers);
        self.in_scope(|sc| {
            for chunk in data.chunks_mut(per * slot_len) {
                sc.spawn(move |_| work(chunk));
            }
        });
    }
}

/// Reinterprets a `Vec<Complex32>` as the `Vec<f32>` over the same
/// allocation (`re`, `im` interleaved), without copying.
fn complex_vec_into_reals(v: Vec<Complex32>) -> Vec<f32> {
    let mut v = std::mem::ManuallyDrop::new(v);
    let (ptr, len, cap) = (v.as_mut_ptr(), v.len(), v.capacity());
    // SAFETY: Complex<f32> is #[repr(C)] { re: f32, im: f32 } — size 8,
    // align 4 — so Layout::array::<f32>(2·cap) equals
    // Layout::array::<Complex32>(cap): the allocation contract for the
    // eventual drop/realloc is preserved, every byte of the length is
    // initialized, and every bit pattern is a valid f32.
    unsafe { Vec::from_raw_parts(ptr.cast::<f32>(), len * 2, cap * 2) }
}

impl Default for FftEngine {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// O(n²) reference DFT along one axis for validation.
    fn dft_axis_naive(t: &CImage, axis: Axis, inverse: bool) -> CImage {
        let shape = t.shape();
        let n = shape[axis as usize];
        let sign = if inverse { 1.0 } else { -1.0 };
        let mut out = t.clone();
        let spec = LineSpec::new(shape, axis);
        let mut line = vec![Complex32::default(); n];
        for i in 0..spec.count {
            spec.read_line(t, i, &mut line);
            let mut res = vec![Complex32::default(); n];
            for (k, r) in res.iter_mut().enumerate() {
                for (j, &v) in line.iter().enumerate() {
                    let ang = sign * 2.0 * std::f32::consts::PI * (k * j) as f32 / n as f32;
                    *r += v * Complex32::new(ang.cos(), ang.sin());
                }
            }
            spec.write_line(&mut out, i, &res);
        }
        out
    }

    fn dft3_naive(t: &CImage) -> CImage {
        let mut out = t.clone();
        for axis in Axis::ALL {
            out = dft_axis_naive(&out, axis, false);
        }
        out
    }

    fn max_cdiff(a: &CImage, b: &CImage) -> f32 {
        a.as_slice()
            .iter()
            .zip(b.as_slice())
            .map(|(x, y)| (x - y).norm())
            .fold(0.0, f32::max)
    }

    /// The half-spectrum a c2c transform implies: packed-axis bins
    /// `0..=⌊m/2⌋`.
    fn truncate_to_half(full: &CImage) -> CImage {
        let m = full.shape();
        let hs = Spectrum::half_shape(m);
        znn_tensor::Tensor3::from_fn(hs, |f| full.at(f))
    }

    #[test]
    fn fft3_matches_naive_dft_on_odd_shapes() {
        for shape in [Vec3::new(4, 3, 5), Vec3::new(1, 8, 2), Vec3::cube(6)] {
            let img = ops::random(shape, 11);
            let mut c = ops::to_complex(&img);
            let engine = FftEngine::new();
            engine.fft3(&mut c);
            let reference = dft3_naive(&ops::to_complex(&img));
            assert!(
                max_cdiff(&c, &reference) < 1e-3,
                "mismatch on {shape}: {}",
                max_cdiff(&c, &reference)
            );
        }
    }

    #[test]
    fn inverse_round_trips() {
        let engine = FftEngine::new();
        for shape in [Vec3::new(8, 4, 6), Vec3::new(1, 16, 16), Vec3::cube(5)] {
            let img = ops::random(shape, 3);
            let mut c = ops::to_complex(&img);
            engine.fft3(&mut c);
            engine.ifft3(&mut c);
            let back = ops::to_real(&c);
            assert!(back.max_abs_diff(&img) < 1e-5, "round trip failed {shape}");
        }
    }

    #[test]
    fn dc_bin_is_total_mass() {
        let engine = FftEngine::new();
        let img = ops::random(Vec3::cube(4), 9);
        let mut c = ops::to_complex(&img);
        engine.fft3(&mut c);
        let dc = c.at((0, 0, 0));
        assert!((dc.re - img.sum()).abs() < 1e-4);
        assert!(dc.im.abs() < 1e-4);
    }

    #[test]
    fn plans_are_cached_per_length_and_direction() {
        let engine = FftEngine::new();
        let mut a = ops::to_complex(&ops::random(Vec3::cube(8), 1));
        engine.fft3(&mut a);
        // one length (8) appears for all three axes -> 1 forward plan
        assert_eq!(engine.cached_plans(), 1);
        engine.ifft3(&mut a);
        assert_eq!(engine.cached_plans(), 2);
        let mut b = ops::to_complex(&ops::random(Vec3::new(4, 8, 16), 1));
        engine.fft3(&mut b);
        assert_eq!(engine.cached_plans(), 4); // +4 fwd, 8 already cached
    }

    #[test]
    fn unit_axes_are_identity() {
        // 2D images (leading axis 1) must transform exactly like 2D FFTs
        let engine = FftEngine::new();
        let img = ops::random(Vec3::flat(4, 4), 5);
        let mut c = ops::to_complex(&img);
        engine.fft3(&mut c);
        let reference = dft3_naive(&ops::to_complex(&img));
        assert!(max_cdiff(&c, &reference) < 1e-3);
    }

    #[test]
    fn rfft3_matches_c2c_on_even_odd_and_unit_axes() {
        // parity with both the c2c engine and (through it) the naive
        // DFT, on even/odd packed extents, volumes, flat 2D (packed
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
            let mut full = ops::to_complex(&img);
            engine.fft3(&mut full);
            let want = truncate_to_half(&full);
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
            let b = engine.forward_padded_c2c(&img, shape);
            assert!(max_cdiff(a.half(), &truncate_to_half(&b)) < 1e-3, "{shape}");
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
        let c2c = engine.forward_padded_c2c(&img, m);
        let at = Vec3::new(2, 1, 0);
        let shape = Vec3::new(4, 5, 6);
        let a = engine.inverse_real(spec, at, shape);
        let b = engine.inverse_real_c2c(c2c, at, shape);
        assert!(a.max_abs_diff(&b) < 1e-5);
    }

    #[test]
    fn set_threads_retunes_live_engine_bitwise_safely() {
        // a planner re-tuning the fan-out mid-run must never change a
        // computed bit — transform at 1, re-tune to 4, transform again
        let engine = FftEngine::with_threads(1);
        let img = ops::random(Vec3::cube(24), 9);
        let before = engine.rfft3(&img);
        engine.set_threads(4);
        assert_eq!(engine.threads(), 4);
        let after = engine.rfft3(&img);
        assert!(max_cdiff(before.half(), after.half()) == 0.0);
        engine.set_threads(0); // clamps to 1
        assert_eq!(engine.threads(), 1);
    }

    #[test]
    fn multi_threaded_transforms_match_single_threaded_bitwise() {
        // the tentpole determinism contract: line chunking across
        // workers must not change a single bit of any transform — 32³ is
        // above the parallel threshold, so the 4-thread engine really
        // splits (scoped workers run even on a 1-core host)
        let serial = FftEngine::with_threads(1);
        let parallel = FftEngine::with_threads(4);
        assert_eq!(serial.threads(), 1);
        assert_eq!(parallel.threads(), 4);
        for shape in [Vec3::cube(32), Vec3::new(16, 32, 64), Vec3::new(128, 130, 1)] {
            let img = ops::random(shape, 91);
            let s_spec = serial.rfft3(&img);
            let p_spec = parallel.rfft3(&img);
            assert!(
                max_cdiff(s_spec.half(), p_spec.half()) == 0.0,
                "forward drift on {shape}"
            );
            let s_back = serial.irfft3(s_spec);
            let p_back = parallel.irfft3(p_spec);
            assert!(
                s_back.max_abs_diff(&p_back) == 0.0,
                "inverse drift on {shape}"
            );
            // and the c2c pipeline
            let mut s_c = ops::to_complex(&img);
            let mut p_c = ops::to_complex(&img);
            serial.fft3(&mut s_c);
            parallel.fft3(&mut p_c);
            assert!(max_cdiff(&s_c, &p_c) == 0.0, "c2c drift on {shape}");
        }
    }

    #[test]
    fn recursive_kernel_engine_matches_the_iterative_one() {
        // the fft_traffic baseline: forcing every line plan onto the
        // recursive fallback must change speed, never values beyond
        // rounding — on 5-smooth non-2^k shapes where the two engines
        // genuinely plan different kernels
        let iter = FftEngine::with_threads(1);
        let rec = FftEngine::with_recursive_kernels();
        for shape in [Vec3::cube(12), Vec3::new(24, 30, 20), Vec3::cube(15)] {
            let img = ops::random(shape, 67);
            let a = iter.rfft3(&img);
            let b = rec.rfft3(&img);
            assert!(
                max_cdiff(a.half(), b.half()) < 1e-3,
                "kernel families disagree on {shape}"
            );
            let back = rec.irfft3(b);
            assert!(back.max_abs_diff(&img) < 1e-5, "recursive round trip {shape}");
        }
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
                    let mut c = ops::to_complex(&img);
                    engine.fft3(&mut c);
                    engine.ifft3(&mut c);
                    assert!(ops::to_real(&c).max_abs_diff(&img) < 1e-5);
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
