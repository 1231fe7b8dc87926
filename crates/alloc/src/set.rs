//! The process-wide pooled-allocator handle the training stack leases
//! every hot-path buffer from.
//!
//! A [`PoolSet`] fronts **one** [`BufferPool`] of power-of-two
//! `f32` chunks with two [`BufferSource`] personalities:
//!
//! * a **real** home for `Tensor3<f32>` buffers (images, padded images,
//!   cropped outputs, dropout masks), and
//! * a **complex** home for `Tensor3<Complex32>` buffers (half-spectra,
//!   product spectra), which leases `2·len` `f32` units
//!   and reinterprets the allocation in place — `Complex<f32>` is
//!   `#[repr(C)] { re: f32, im: f32 }`, so the layouts agree exactly.
//!
//! Sharing one chunk pool (rather than one typed pool per element)
//! follows §VII-C: the pools there hold chunks of 2^i *bytes*, not
//! typed objects. A freed spectrum chunk can serve the next image of
//! the same byte size, and the other way round, so the footprint is one
//! set of size classes rather than one per element type, and it
//! plateaus after the first few rounds. Every buffer goes back as the
//! type it was leased as; the complex personality only reinterprets
//! chunk storage on the way out and back.
//!
//! # Invariant: even capacities for complex leases
//!
//! Reinterpreting `Vec<f32>` ↔ `Vec<Complex32>` is only sound when the
//! `f32` capacity is even (`Layout::array::<f32>(2c)` ==
//! `Layout::array::<Complex32>(c)`). The chunk pool is private to the
//! `PoolSet` and every entry path preserves evenness where it matters:
//! complex leases request ≥ 2 units and so pop from classes ≥ 1, whose
//! pool-born chunks have power-of-two (even) capacity; the only odd
//! capacity a pool-born chunk can have is the 1-unit class 0, which
//! complex leases never touch; and a complex buffer recycled into the
//! chunks has capacity `2 · complex capacity`, even by construction.
//! The lease path still asserts the invariant rather than trusting it.

use crate::pool::{BufferPool, ClassReport};
use crate::stats::PoolStats;
use std::sync::{Arc, OnceLock};
use znn_tensor::{BufferSource, Complex32, Image, Spectrum, Tensor3, Vec3};

impl<T: Copy + Default + Send + 'static> BufferSource<T> for BufferPool<T> {
    fn lease(&self, len: usize) -> Vec<T> {
        self.get(len)
    }

    fn lease_empty(&self, len: usize) -> Vec<T> {
        self.get_empty(len)
    }

    fn recycle(&self, buf: Vec<T>) {
        self.put(buf);
    }
}

/// The complex personality of a shared `f32` chunk pool: leases twice
/// the units and reinterprets the allocation in place.
struct ComplexChunks {
    chunks: Arc<BufferPool<f32>>,
}

impl BufferSource<Complex32> for ComplexChunks {
    fn lease(&self, len: usize) -> Vec<Complex32> {
        if len == 0 {
            return Vec::new();
        }
        let v = self.chunks.get(2 * len);
        // see the module docs: every buffer reachable from a ≥2-unit
        // request has even capacity; reinterpreting an odd-capacity
        // allocation would corrupt its layout on drop, so fail loudly
        // instead.
        assert!(
            v.capacity().is_multiple_of(2),
            "odd-capacity chunk ({}) reached a complex lease",
            v.capacity()
        );
        // SAFETY: Complex<f32> is #[repr(C)] { re: f32, im: f32 } —
        // size 8, align 4 — so with even f32 capacity 2c the allocation
        // layout Layout::array::<f32>(2c) equals
        // Layout::array::<Complex32>(c). All 2·len leased f32s are
        // zero-initialized, which is a valid (zero) Complex32 bit
        // pattern for each re/im pair.
        unsafe { reinterpret_vec::<f32, Complex32>(v) }
    }

    fn lease_empty(&self, len: usize) -> Vec<Complex32> {
        if len == 0 {
            return Vec::new();
        }
        let v = self.chunks.get_empty(2 * len);
        assert!(
            v.capacity().is_multiple_of(2),
            "odd-capacity chunk ({}) reached a complex lease",
            v.capacity()
        );
        // SAFETY: as in `lease`; the zero length covers no bytes.
        unsafe { reinterpret_vec::<f32, Complex32>(v) }
    }

    fn recycle(&self, buf: Vec<Complex32>) {
        if buf.capacity() == 0 {
            return;
        }
        // SAFETY: the reverse of `lease` — any complex capacity c maps
        // to the even f32 capacity 2c with an identical layout, and
        // every initialized Complex32 is two initialized f32s.
        self.chunks.put(unsafe { reinterpret_vec::<Complex32, f32>(buf) });
    }
}

/// Reinterprets a `Vec<A>` as a `Vec<B>` over the same allocation.
///
/// # Safety
///
/// The caller must guarantee that `Layout::array::<A>(capacity)` equals
/// `Layout::array::<B>(new capacity)` for the converted capacity (so
/// the eventual dealloc/realloc contract is preserved), that the
/// converted length covers only initialized bytes, and that every bit
/// pattern of those bytes is valid at type `B`. Both directions of the
/// `f32`/`Complex32` pair satisfy this when the `f32` capacity is even.
unsafe fn reinterpret_vec<A, B>(v: Vec<A>) -> Vec<B> {
    let (a, b) = (std::mem::size_of::<A>(), std::mem::size_of::<B>());
    debug_assert_eq!(std::mem::align_of::<A>(), std::mem::align_of::<B>());
    let mut v = std::mem::ManuallyDrop::new(v);
    let (ptr, len, cap) = (v.as_mut_ptr(), v.len(), v.capacity());
    debug_assert_eq!((len * a) % b, 0);
    debug_assert_eq!((cap * a) % b, 0);
    // SAFETY: `ptr` and `cap` come from a live `Vec<A>` that is never
    // dropped (`ManuallyDrop`), so the allocation is handed over
    // exactly once. By the caller's contract the converted capacity
    // describes the same layout (equal alignment, `cap·a` bytes), and
    // the converted length covers only initialized bytes that are
    // valid at `B`.
    unsafe { Vec::from_raw_parts(ptr.cast::<B>(), len * a / b, cap * a / b) }
}

/// The paper's §VII-C pooled allocator as one shareable handle: the
/// thing `TrainConfig::pools` routes through the whole stack so every
/// hot-path tensor and spectrum buffer is leased, recycled, and never
/// returned to the OS.
///
/// Cloning the `Arc<PoolSet>` shares the pool; [`PoolSet::global`]
/// yields the process-wide instance the default `TrainConfig` uses.
/// All activity lands in a single [`PoolStats`], so hit rate, resident
/// bytes and per-round churn are read from one place.
///
/// # Example
///
/// ```
/// use znn_alloc::PoolSet;
/// use znn_tensor::Vec3;
///
/// let pools = PoolSet::new();
/// let img = pools.image(Vec3::cube(8));        // leased, zero-filled
/// drop(img);                                   // storage returns to the pool
/// let again = pools.image(Vec3::cube(8));      // same chunk, no allocation
/// assert_eq!(pools.stats().hits(), 1);
/// assert!(again.as_slice().iter().all(|&v| v == 0.0));
/// ```
pub struct PoolSet {
    chunks: Arc<BufferPool<f32>>,
    real: Arc<dyn BufferSource<f32>>,
    complex: Arc<dyn BufferSource<Complex32>>,
}

impl PoolSet {
    /// A fresh, empty pool set (its footprint grows on first use and
    /// then plateaus). Most callers want [`PoolSet::global`] instead so
    /// every engine in the process shares one footprint.
    #[allow(clippy::new_without_default)]
    pub fn new() -> Arc<Self> {
        let chunks = Arc::new(BufferPool::<f32>::new());
        Arc::new(PoolSet {
            real: Arc::clone(&chunks) as Arc<dyn BufferSource<f32>>,
            complex: Arc::new(ComplexChunks {
                chunks: Arc::clone(&chunks),
            }),
            chunks,
        })
    }

    /// The process-wide pool set — what `TrainConfig::default()` plumbs
    /// into every engine, so all training runs in the process share one
    /// flat footprint.
    pub fn global() -> Arc<Self> {
        static GLOBAL: OnceLock<Arc<PoolSet>> = OnceLock::new();
        Arc::clone(GLOBAL.get_or_init(PoolSet::new))
    }

    /// The [`BufferSource`] for real (`f32`) tensor buffers.
    pub fn real_home(&self) -> &Arc<dyn BufferSource<f32>> {
        &self.real
    }

    /// The [`BufferSource`] for complex tensor buffers (spectra).
    pub fn complex_home(&self) -> &Arc<dyn BufferSource<Complex32>> {
        &self.complex
    }

    /// A zero-filled leased image: drops recycle its storage here.
    pub fn image(&self, shape: impl Into<Vec3>) -> Image {
        Tensor3::leased(shape, Arc::clone(&self.real))
    }

    /// A zero-filled leased complex tensor.
    pub(crate) fn cimage(&self, shape: impl Into<Vec3>) -> Tensor3<Complex32> {
        Tensor3::leased(shape, Arc::clone(&self.complex))
    }

    /// An all-zero leased half-spectrum for a transform of shape `full`.
    pub fn spectrum(&self, full: Vec3) -> Spectrum {
        Spectrum::new(self.cimage(Spectrum::half_shape(full)), full)
    }

    /// The shared counters of the underlying chunk pool. Byte figures
    /// count `f32` units × 4 regardless of which personality leased the
    /// chunk.
    pub fn stats(&self) -> &PoolStats {
        self.chunks.stats()
    }

    /// Bytes currently resident in the pool's custody — the process
    /// footprint attributable to pooled buffers. Never decreases
    /// (nothing is returned to the OS); plateaus once the steady-state
    /// working set has been seen (§VII-C).
    pub fn resident_bytes(&self) -> usize {
        self.stats().bytes_from_system()
    }

    /// Per-size-class occupancy and hit-rate rows for the shared chunk
    /// pool (`--pool-report`). `chunk_len` counts `f32` units; complex
    /// leases appear in the class of their `2 × len` real footprint.
    pub fn class_report(&self) -> Vec<ClassReport> {
        self.chunks.class_report()
    }

    /// Fraction of leases served by recycling, `0.0` on an unused pool.
    /// Approaches 1.0 once training reaches its steady state.
    pub fn hit_rate(&self) -> f64 {
        let h = self.stats().hits();
        let m = self.stats().misses();
        if h + m == 0 {
            0.0
        } else {
            h as f64 / (h + m) as f64
        }
    }
}

/// A zero-filled image leased from `pools` when present, plainly
/// allocated otherwise — the one shared "pool or fallback" helper the
/// engine layers (`znn-fft`, `znn-core`, `znn-ops`) route their
/// optional pooling through, so lease semantics can only change in one
/// place.
pub fn lease_image(pools: Option<&Arc<PoolSet>>, shape: impl Into<Vec3>) -> Image {
    match pools {
        Some(p) => p.image(shape),
        None => Image::zeros(shape),
    }
}

/// Complex twin of [`lease_image`].
pub fn lease_cimage(
    pools: Option<&Arc<PoolSet>>,
    shape: impl Into<Vec3>,
) -> Tensor3<Complex32> {
    match pools {
        Some(p) => p.cimage(shape),
        None => Tensor3::zeros(shape),
    }
}

impl std::fmt::Debug for PoolSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PoolSet")
            .field("resident_bytes", &self.resident_bytes())
            .field("bytes_in_use", &self.stats().bytes_in_use())
            .field("hits", &self.stats().hits())
            .field("misses", &self.stats().misses())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn image_and_cimage_leases_are_zeroed_and_recycled() {
        let pools = PoolSet::new();
        let mut img = pools.image(Vec3::cube(4));
        img.as_mut_slice().fill(3.5);
        drop(img);
        let img2 = pools.image(Vec3::cube(4));
        assert!(img2.as_slice().iter().all(|&v| v == 0.0));
        assert_eq!(pools.stats().hits(), 1);

        let mut c = pools.cimage(Vec3::cube(3));
        c.as_mut_slice().fill(Complex32::new(1.0, -1.0));
        drop(c);
        let c2 = pools.cimage(Vec3::cube(3));
        assert!(c2.as_slice().iter().all(|&v| v == Complex32::new(0.0, 0.0)));
    }

    #[test]
    fn real_and_complex_leases_share_one_chunk_pool() {
        let pools = PoolSet::new();
        // a complex lease of 25 bins asks for 50 f32 units -> class 6 (64)
        drop(pools.cimage(Vec3::new(1, 1, 25)));
        let before = pools.resident_bytes();
        // a real lease of 60 voxels is the same class -> must hit
        drop(pools.image(Vec3::new(1, 1, 60)));
        assert_eq!(pools.resident_bytes(), before);
        assert_eq!(pools.stats().hits(), 1);
    }

    #[test]
    fn complex_round_trip_preserves_contents_bit_for_bit() {
        let pools = PoolSet::new();
        let mut c = pools.cimage(Vec3::new(2, 3, 4));
        for (i, v) in c.as_mut_slice().iter_mut().enumerate() {
            *v = Complex32::new(i as f32, -(i as f32) * 0.5);
        }
        let copy = c.clone(); // pooled clone: fresh lease + copy
        assert_eq!(copy, c);
        assert!(copy.home().is_some());
        for (i, v) in copy.as_slice().iter().enumerate() {
            assert_eq!(v.re.to_bits(), (i as f32).to_bits());
            assert_eq!(v.im.to_bits(), (-(i as f32) * 0.5).to_bits());
        }
    }

    #[test]
    fn one_voxel_images_never_feed_complex_leases() {
        // class-0 chunks (capacity 1, the only odd pool-born capacity)
        // must never be popped by a complex lease, which always asks
        // for >= 2 units
        let pools = PoolSet::new();
        drop(pools.image(Vec3::one())); // parks a 1-unit chunk in class 0
        let c = pools.cimage(Vec3::one()); // asks for 2 units -> class 1 miss
        assert_eq!(pools.stats().misses(), 2);
        assert_eq!(pools.stats().hits(), 0);
        drop(c);
    }

    #[test]
    fn spectrum_leases_carry_the_logical_shape() {
        let pools = PoolSet::new();
        let s = pools.spectrum(Vec3::cube(8));
        assert_eq!(s.full_shape(), Vec3::cube(8));
        assert_eq!(s.half().shape(), Spectrum::half_shape(Vec3::cube(8)));
        assert!(s.half().home().is_some());
    }

    #[test]
    fn concurrent_lease_recycle_race_conserves_accounting() {
        // the multi-worker recycle race: four threads lease and drop
        // real and complex buffers of overlapping size classes through
        // one shared PoolSet; afterwards nothing may still be counted
        // in use, and every lease must be accounted a hit or a miss
        let pools = PoolSet::new();
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let pools = Arc::clone(&pools);
                std::thread::spawn(move || {
                    for i in 0..250 {
                        let n = 1 + (t + i) % 6;
                        let img = pools.image(Vec3::cube(n));
                        let spec = pools.spectrum(Vec3::cube(n + 1));
                        let c = spec.half().clone(); // pooled clone race
                        drop(spec);
                        drop(img);
                        drop(c);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(pools.stats().bytes_in_use(), 0);
        assert_eq!(pools.stats().hits() + pools.stats().misses(), 4 * 250 * 3);
        // a second identical pass over a warm pool allocates nothing
        let resident = pools.resident_bytes();
        let misses = pools.stats().misses();
        for t in 0..4 {
            for i in 0..250 {
                let n = 1 + (t + i) % 6;
                drop(pools.image(Vec3::cube(n)));
                drop(pools.spectrum(Vec3::cube(n + 1)));
            }
        }
        assert_eq!(pools.resident_bytes(), resident, "footprint grew after warmup");
        assert_eq!(pools.stats().misses(), misses, "cold lease after warmup");
    }

    #[test]
    fn global_pool_is_shared() {
        let a = PoolSet::global();
        let b = PoolSet::global();
        assert!(Arc::ptr_eq(&a, &b));
    }
}
