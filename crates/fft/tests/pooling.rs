//! Pins for the pooled-allocator integration (paper §VII-C).
//!
//! The engine's contract when built with
//! [`FftEngine::with_buffer_pools`] is threefold:
//!
//! 1. **Bit-for-bit fidelity** — leasing buffers from a recycling pool
//!    must not change a single output bit relative to the plain-`Vec`
//!    engine, on any shape or direction (pool leases are zero-filled
//!    exactly like fresh buffers, an inverse's output leased without
//!    the fill is fully written before it is read, and the per-thread
//!    scratch never reaches an output).
//! 2. **Zero steady-state allocation** — once one pass of a workload
//!    has warmed the pool, repeating the workload performs no system
//!    allocation at all: every lease is a hit and the resident
//!    footprint stops growing (the paper's "memory usage peaks after
//!    the first few rounds" property).
//! 3. **Conservation** — everything leased comes back: after all
//!    produced tensors drop, the pool counts zero bytes in use. Every
//!    inverse leases its real output and drops the consumed spectrum,
//!    which returns to the pool that leased it.

use proptest::prelude::*;
use std::sync::Arc;
use znn_alloc::PoolSet;
use znn_fft::{good_shape, spectra, FftEngine};
use znn_tensor::{ops, Spectrum, Tensor3, Vec3};

fn max_cdiff_bits(a: &Spectrum, b: &Spectrum) -> bool {
    a.full_shape() == b.full_shape()
        && a.half()
            .as_slice()
            .iter()
            .zip(b.half().as_slice())
            .all(|(x, y)| x.re.to_bits() == y.re.to_bits() && x.im.to_bits() == y.im.to_bits())
}

fn bits_equal(a: &Tensor3<f32>, b: &Tensor3<f32>) -> bool {
    a.shape() == b.shape()
        && a.as_slice()
            .iter()
            .zip(b.as_slice())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

/// The shapes the engine meets in practice: volumes (even/odd packed
/// extents), flat 2D, 1D rows, single voxels.
const SHAPES: &[Vec3] = &[
    Vec3::cube(8),
    Vec3::new(4, 6, 10),
    Vec3::new(4, 3, 5),
    Vec3::new(5, 6, 1),
    Vec3::new(5, 5, 1),
    Vec3::new(6, 1, 1),
    Vec3::one(),
    Vec3::cube(12),
];

#[test]
fn pooled_transforms_are_bitwise_identical_to_raw() {
    let raw = FftEngine::new();
    let pooled = FftEngine::new().with_buffer_pools(PoolSet::new());
    for &shape in SHAPES {
        let img = ops::random(shape, 11);
        let a = raw.rfft3(&img);
        let b = pooled.rfft3(&img);
        assert!(max_cdiff_bits(&a, &b), "forward drift on {shape}");
        let back_a = raw.irfft3(a);
        let back_b = pooled.irfft3(b);
        assert!(bits_equal(&back_a, &back_b), "inverse drift on {shape}");
    }
}

#[test]
fn pooled_staged_convolution_path_is_bitwise_identical() {
    // forward_padded (pooled spectrum) + flip/corr identities (pooled
    // clones) + inverse_real (pooled output) against the raw engine
    let raw = FftEngine::new();
    let pooled = FftEngine::new().with_buffer_pools(PoolSet::new());
    let n = Vec3::cube(7);
    let k = Vec3::cube(3);
    let m = good_shape(n);
    let x = ops::random(n, 21);
    let w = ops::random(k, 22);
    let xs_a = raw.forward_padded(&x, m);
    let xs_b = pooled.forward_padded(&x, m);
    assert!(max_cdiff_bits(&xs_a, &xs_b), "forward_padded drift");
    let ws_a = raw.forward_padded(&w, m);
    let ws_b = pooled.forward_padded(&w, m);
    let flip_a = spectra::flip_spectrum(&ws_a, k);
    let flip_b = spectra::flip_spectrum(&ws_b, k);
    assert!(max_cdiff_bits(&flip_a, &flip_b), "flip_spectrum drift");
    let prod_a = ops::mul_s(&xs_a, &flip_a);
    let prod_b = ops::mul_s(&xs_b, &flip_b);
    assert!(max_cdiff_bits(&prod_a, &prod_b), "mul_s drift");
    let out_a = raw.inverse_real(prod_a, Vec3::zero(), n);
    let out_b = pooled.inverse_real(prod_b, Vec3::zero(), n);
    assert!(bits_equal(&out_a, &out_b), "inverse_real drift");
}

#[test]
fn steady_state_rounds_allocate_nothing() {
    // one "round" = the engine-side buffer traffic of an FFT
    // convolution: padded forward transforms, a spectrum product, a
    // derived flip spectrum, and a cropped inverse. After the warmup
    // round the pool must serve every lease by recycling: no new bytes
    // from the system, no misses, hit rate -> 1.
    let pools = PoolSet::new();
    let engine = FftEngine::new().with_buffer_pools(Arc::clone(&pools));
    let n = Vec3::cube(9);
    let k = Vec3::cube(3);
    let m = good_shape(n);
    let x = ops::random(n, 31);
    let w = ops::random(k, 32);
    let round = |engine: &FftEngine| {
        let xs = engine.forward_padded(&x, m);
        let ws = engine.forward_padded(&w, m);
        let flip = spectra::flip_spectrum(&ws, k);
        let prod = ops::mul_s(&xs, &flip);
        let crop_at = k - Vec3::one();
        let out = engine.inverse_real(prod, crop_at, n.valid_conv(k).unwrap());
        std::hint::black_box(&out);
    };
    round(&engine); // warmup: populates the pool
    round(&engine); // second pass: classes of every lease now parked
    let resident = pools.resident_bytes();
    let misses = pools.stats().misses();
    let hits_before = pools.stats().hits();
    for _ in 0..5 {
        round(&engine);
    }
    assert_eq!(
        pools.resident_bytes(),
        resident,
        "resident footprint grew after warmup"
    );
    assert_eq!(pools.stats().misses(), misses, "pool missed after warmup");
    assert!(
        pools.stats().hits() > hits_before,
        "steady-state rounds did not go through the pool"
    );
    // every lease of the steady-state rounds was a hit
    let total = pools.stats().hits() + pools.stats().misses();
    assert!(
        pools.stats().hits() as f64 / total as f64 > 0.5,
        "hit rate did not climb"
    );
}

#[test]
fn pruned_transforms_lease_only_their_outputs() {
    // a 5³ image padded to 60³, a kernel spectrum and a cropped inverse
    // lease exactly their own outputs — the half-spectrum, or the crop
    // — and never an m³ real buffer: no padded copy of the input, no
    // full-size inverse to crop from
    let pools = PoolSet::new();
    let engine = FftEngine::new().with_buffer_pools(Arc::clone(&pools));
    let m = Vec3::cube(60);
    let x = ops::random(Vec3::cube(5), 61);
    let w = ops::random(Vec3::cube(5), 62);
    // warm the plan cache and the thread's scratch first
    drop(engine.irfft3(engine.rfft3(&ops::random(m, 63))));
    let warm = pools.stats().bytes_in_use();
    let chunk = |floats: usize| znn_alloc::size_of_class(znn_alloc::class_of(floats)) * 4;
    let spectrum_chunk = chunk(2 * Spectrum::half_shape(m).len());
    let leased_by = |f: &mut dyn FnMut()| {
        let before = pools.stats().bytes_leased();
        f();
        pools.stats().bytes_leased() - before
    };
    let mut xs = None;
    let bytes = leased_by(&mut || xs = Some(engine.forward_padded(&x, m)));
    assert_eq!(bytes, spectrum_chunk, "forward_padded leased a padded copy");
    let mut ws = None;
    let bytes =
        leased_by(&mut || ws = Some(spectra::kernel_spectrum(&engine, &w, Vec3::cube(2), m)));
    assert_eq!(
        bytes, spectrum_chunk,
        "kernel_spectrum leased a dilated or padded copy"
    );
    let (xs, ws) = (xs.unwrap(), ws.unwrap());
    let mut prod = Some(ops::mul_s(&xs, &ws));
    let crop = Vec3::cube(7);
    let mut out = None;
    let bytes = leased_by(&mut || {
        out = prod
            .take()
            .map(|p| engine.inverse_real(p, Vec3::cube(3), crop));
    });
    assert_eq!(
        bytes,
        chunk(crop.len()),
        "cropped inverse leased more than its crop"
    );
    drop((xs, ws, out));
    assert_eq!(
        pools.stats().bytes_in_use(),
        warm,
        "an output lease outlived its tensor"
    );
    drop(engine);
    assert_eq!(
        pools.stats().bytes_in_use(),
        0,
        "pooled bytes leaked out of custody"
    );
}

#[test]
fn all_leases_return_to_the_pool() {
    let pools = PoolSet::new();
    let engine = FftEngine::new().with_buffer_pools(Arc::clone(&pools));
    for &shape in SHAPES {
        let img = ops::random(shape, 41);
        let spec = engine.rfft3(&img);
        let clone = spec.clone();
        let back = engine.irfft3(spec);
        drop(clone);
        drop(back);
    }
    drop(engine);
    assert_eq!(
        pools.stats().bytes_in_use(),
        0,
        "pooled bytes leaked out of custody"
    );
}

#[test]
fn pooled_engine_shares_plans_and_pools_across_threads() {
    // the recycle race at engine level: several threads hammer one
    // pooled engine; values must stay correct and accounting conserved
    let pools = PoolSet::new();
    let engine = Arc::new(FftEngine::new().with_buffer_pools(Arc::clone(&pools)));
    let handles: Vec<_> = (0..4)
        .map(|seed| {
            let engine = Arc::clone(&engine);
            std::thread::spawn(move || {
                for i in 0..20 {
                    let img = ops::random(Vec3::cube(6 + (seed + i) % 3), seed as u64);
                    let back = engine.irfft3(engine.rfft3(&img));
                    assert!(back.max_abs_diff(&img) < 1e-5);
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    drop(engine);
    assert_eq!(pools.stats().bytes_in_use(), 0);
}

#[test]
fn foreign_spectra_are_not_adopted_into_the_pool() {
    // a spectrum whose buffer the pool never leased (here: produced by
    // an unpooled engine) must not reach the pool when irfft3 consumes
    // it — recycling never-leased bytes would corrupt the pool's
    // bytes_in_use accounting and under-report the real footprint; the
    // output is this engine's own lease
    let pools = PoolSet::new();
    let engine = FftEngine::new().with_buffer_pools(Arc::clone(&pools));
    let img = ops::random(Vec3::cube(6), 51);
    // warm up so the output's size class is already parked
    drop(engine.irfft3(engine.rfft3(&img)));
    let in_use = pools.stats().bytes_in_use();
    let foreign = FftEngine::new().rfft3(&img);
    let back = engine.irfft3(foreign);
    let home = back.home().expect("the output is leased");
    assert!(Arc::ptr_eq(home, pools.real_home()), "the output's home is another pool");
    drop(back);
    assert_eq!(
        pools.stats().bytes_in_use(),
        in_use,
        "pool accounting drifted on a foreign spectrum"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Lease/return round-trips preserve tensor contents bit-for-bit:
    /// on random shapes and seeds, the pooled engine's forward spectrum
    /// and reconstructed image equal the raw engine's bitwise — and a
    /// pooled clone equals its original bitwise after the original is
    /// recycled and its chunk re-leased.
    #[test]
    fn pooled_round_trip_is_bitwise_faithful(
        x in 1usize..7,
        y in 1usize..7,
        z in 1usize..9,
        seed in 0u64..1000,
    ) {
        let shape = Vec3::new(x, y, z);
        let img = ops::random(shape, seed);
        let raw = FftEngine::new();
        let pools = PoolSet::new();
        let pooled = FftEngine::new().with_buffer_pools(Arc::clone(&pools));
        let a = raw.rfft3(&img);
        let b = pooled.rfft3(&img);
        prop_assert!(max_cdiff_bits(&a, &b), "forward drift on {shape}");
        // clone, recycle the original, re-lease its chunk: the clone
        // must still hold the exact bits
        let keep = b.clone();
        let back = pooled.irfft3(b); // consumes + recycles the spectrum
        prop_assert!(max_cdiff_bits(&a, &keep), "clone lost bits on {shape}");
        let back_raw = raw.irfft3(a);
        prop_assert!(bits_equal(&back_raw, &back), "inverse drift on {shape}");
    }
}
