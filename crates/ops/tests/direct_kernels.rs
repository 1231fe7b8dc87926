//! Bit pins and an independent oracle for the three direct-convolution
//! passes.
//!
//! `znn-baseline`'s reference net runs these same kernels, so the
//! engine-vs-baseline differential tests cannot see a kernel bug. Here
//! each pass is held against:
//!
//! * a **twin** — the per-tap formulation the register-blocked kernels
//!   replaced, kept only in this file: the forward as one `fma` per
//!   (row, tap) in `(ux, uy, uz)` order skipping zero taps, the input
//!   gradient as that forward over the fully padded output gradient
//!   with the flipped kernel, and the kernel gradient as one sequential
//!   f64 sum per tap. The forward must match its twin bit for bit, the
//!   input gradient under `==` (the x/y halo taps the gather form drops
//!   only ever added exact zeros, so at most the sign of a zero may
//!   differ), and the kernel gradient within 1 f32 ulp (same exact f64
//!   products, different association);
//! * a **naive f64 definition** — every pass summed straight from its
//!   formula in f64, which the f32 result must meet within a per-tap
//!   rounding bound.

use proptest::prelude::*;
use znn_ops::conv;
use znn_tensor::{ops, pad, Image, Tensor3, Vec3};

/// The per-tap forward: for every output row, every tap in `(ux, uy,
/// uz)` order, one fused multiply-accumulate over the row.
fn twin_forward(img: &Image, ker: &Image, s: Vec3) -> Image {
    let n = img.shape();
    let k = ker.shape();
    let out_shape = conv::valid_shape(n, k, s).unwrap();
    let mut out = Tensor3::<f32>::zeros(out_shape);
    let src = img.as_slice();
    for ox in 0..out_shape[0] {
        for oy in 0..out_shape[1] {
            for ux in 0..k[0] {
                for uy in 0..k[1] {
                    for uz in 0..k[2] {
                        let w = ker.at(Vec3::new(k[0] - 1 - ux, k[1] - 1 - uy, k[2] - 1 - uz));
                        if w == 0.0 {
                            continue;
                        }
                        let base = n.offset(Vec3::new(ox + ux * s[0], oy + uy * s[1], uz * s[2]));
                        let row = out.z_line_mut(ox, oy);
                        for (i, d) in row.iter_mut().enumerate() {
                            *d = w.mul_add(src[base + i], *d);
                        }
                    }
                }
            }
        }
    }
    out
}

/// The full convolution of the padded output gradient with the flipped
/// kernel.
fn twin_input_gradient(g: &Image, ker: &Image, s: Vec3) -> Image {
    let m = (ker.shape() - Vec3::one()) * s;
    let padded = pad::pad(g, g.shape() + m * 2, m);
    twin_forward(&padded, &pad::flip(ker), s)
}

/// One sequential f64 sum per tap: each row summed, then added.
fn twin_kernel_gradient(x: &Image, g: &Image, k: Vec3, s: Vec3) -> Image {
    let n = x.shape();
    let go = g.shape();
    Tensor3::from_fn(k, |t| {
        let u = k - Vec3::one() - t;
        let mut acc = 0.0f64;
        for ox in 0..go[0] {
            for oy in 0..go[1] {
                let x_base = n.offset(Vec3::new(ox + u[0] * s[0], oy + u[1] * s[1], u[2] * s[2]));
                let x_row = &x.as_slice()[x_base..x_base + go[2]];
                acc += g
                    .z_line(ox, oy)
                    .iter()
                    .zip(x_row)
                    .map(|(&a, &b)| a as f64 * b as f64)
                    .sum::<f64>();
            }
        }
        acc as f32
    })
}

/// The three passes from their definitions in f64: per output, the exact
/// sum and the sum of absolute terms (for the rounding bound).
struct Naive {
    fwd: Vec<(f64, f64)>,
    bwd: Vec<(f64, f64)>,
    upd: Vec<(f64, f64)>,
}

fn naive(x: &Image, ker: &Image, g: &Image, s: Vec3) -> Naive {
    let k = ker.shape();
    let out = g.shape();
    let mut fwd = vec![(0.0, 0.0); out.len()];
    let mut bwd = vec![(0.0, 0.0); x.len()];
    let mut upd = vec![(0.0, 0.0); k.len()];
    for o in out.iter() {
        for t in k.iter() {
            // y[o] = Σ_t w[t] · x[o + (k−1−t)·s]
            let at = o + (k - Vec3::one() - t) * s;
            let (xv, wv, gv) = (x.at(at) as f64, ker.at(t) as f64, g.at(o) as f64);
            let f = &mut fwd[out.offset(o)];
            *f = (f.0 + xv * wv, f.1 + (xv * wv).abs());
            let b = &mut bwd[x.shape().offset(at)];
            *b = (b.0 + gv * wv, b.1 + (gv * wv).abs());
            let u = &mut upd[k.offset(t)];
            *u = (u.0 + gv * xv, u.1 + (gv * xv).abs());
        }
    }
    Naive { fwd, bwd, upd }
}

/// Distance in f32 ulps (`+0.0` and `-0.0` are the same point).
fn ulps(a: f32, b: f32) -> u64 {
    let ord = |v: f32| {
        let i = v.to_bits() as i32;
        if i < 0 {
            -((i & 0x7fff_ffff) as i64)
        } else {
            i as i64
        }
    };
    ord(a).abs_diff(ord(b))
}

fn bits(img: &Image) -> Vec<u32> {
    img.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// A kernel with some taps zeroed (one of them `-0.0`).
fn kernel_with_zeros(k: Vec3, seed: u64, every: usize) -> Image {
    let mut ker = ops::random(k, seed);
    for (i, w) in ker.as_mut_slice().iter_mut().enumerate() {
        if every > 0 && i % every == every - 1 {
            *w = if i % 2 == 0 { 0.0 } else { -0.0 };
        }
    }
    ker
}

/// Runs all three passes at one geometry and checks each against its
/// twin and the naive definition. `out` is the forward output shape.
fn check_geometry(out: Vec3, k: Vec3, s: Vec3, seed: u64, zero_every: usize) {
    let n = out + (k - Vec3::one()) * s;
    let x = ops::random(n, seed);
    let ker = kernel_with_zeros(k, seed ^ 0xABCD, zero_every);
    let g = ops::random(out, seed ^ 0x1234);
    let ctx = format!("out={out} k={k} s={s} seed={seed} zero_every={zero_every}");

    let fwd = conv::conv_valid(&x, &ker, s);
    let fwd_twin = twin_forward(&x, &ker, s);
    for (i, (a, b)) in fwd.as_slice().iter().zip(fwd_twin.as_slice()).enumerate() {
        assert!(a.to_bits() == b.to_bits(), "forward at {i}: {a:e} vs twin {b:e}, {ctx}");
    }

    let bwd = conv::input_gradient(&g, &ker, s);
    let bwd_twin = twin_input_gradient(&g, &ker, s);
    assert_eq!(bwd.shape(), n);
    for (i, (a, b)) in bwd.as_slice().iter().zip(bwd_twin.as_slice()).enumerate() {
        assert!(a == b, "input gradient at {i}: {a} vs twin {b}, {ctx}");
    }

    let upd = conv::kernel_gradient(&x, &g, k, s);
    let upd_twin = twin_kernel_gradient(&x, &g, k, s);
    for (i, (&a, &b)) in upd.as_slice().iter().zip(upd_twin.as_slice()).enumerate() {
        assert!(ulps(a, b) <= 1, "kernel gradient at {i}: {a} vs twin {b}, {ctx}");
    }

    // against the definition: an f32 fma chain of T taps errs by at
    // most T half-ulps of its running magnitudes (bounded by Σ|terms|);
    // the f64 dot carries ~1e-16·Σ|terms| before its one f32 rounding
    let eps = f32::EPSILON as f64;
    let taps = k.len() as f64;
    let nv = naive(&x, &ker, &g, s);
    for (what, got, want, per_abs, per_exact) in [
        ("forward", &fwd, &nv.fwd, taps * eps, eps),
        ("input gradient", &bwd, &nv.bwd, taps * eps, eps),
        ("kernel gradient", &upd, &nv.upd, 1e-12, 0.5 * eps),
    ] {
        for (i, (&v, &(exact, abs))) in got.as_slice().iter().zip(want.iter()).enumerate() {
            let bound = per_abs * abs + per_exact * exact.abs() + 1e-30;
            assert!(
                (v as f64 - exact).abs() <= bound,
                "{what} at {i}: {v} vs exact {exact} (bound {bound}), {ctx}"
            );
        }
    }
}

/// (forward output shape, kernel, sparsity): 3D, flat 2D (`x = 1`) and
/// 1D rows (`x = y = 1`); sparsity 1–4 per axis; output rows 1–40, so
/// every 8-, 16- and 32-lane tail is hit.
fn geometry() -> impl Strategy<Value = (Vec3, Vec3, Vec3)> {
    (
        0usize..3,
        (1usize..4, 1usize..4, 1usize..6),
        (1usize..5, 1usize..5, 1usize..5),
        (1usize..4, 1usize..4, 1usize..41),
    )
        .prop_map(|(unit_axes, k, s, out)| {
            let (k, s, out) = (Vec3::from(k), Vec3::from(s), Vec3::from(out));
            match unit_axes {
                0 => (out, k, s),
                1 => (Vec3::new(1, out[1], out[2]), Vec3::new(1, k[1], k[2]), s),
                _ => (Vec3::new(1, 1, out[2]), Vec3::new(1, 1, k[2]), s),
            }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(160))]

    #[test]
    fn passes_match_twins_and_definition(
        (out, k, s) in geometry(),
        seed in any::<u64>(),
        zero_every in 0usize..4,
    ) {
        check_geometry(out, k, s, seed, zero_every);
    }
}

/// Every row length 1–40 on 1D rows, dense and sparse, with and without
/// zero taps.
#[test]
fn every_row_length_matches() {
    for len in 1..=40 {
        for (k, s) in [(5, 1), (3, 4), (1, 1)] {
            check_geometry(
                Vec3::new(1, 1, len),
                Vec3::new(1, 1, k),
                Vec3::new(1, 1, s),
                len as u64,
                3,
            );
        }
    }
}

/// The geometries the benchmark workloads run: 3³ kernels at sparsity
/// 1/2/4 onto 22³/12³/4³ outputs (and the 27³ first layer), and flat 5²
/// kernels at the 2D comparison net's sizes.
#[test]
fn workload_geometries_match() {
    for (out, s) in [(27, 1), (22, 2), (12, 4), (4, 4)] {
        check_geometry(Vec3::cube(out), Vec3::cube(3), Vec3::cube(s), out as u64, 0);
    }
    for (out, s) in [(91, 1), (82, 2), (64, 4), (48, 4), (32, 4), (16, 4)] {
        check_geometry(Vec3::flat(out, out), Vec3::flat(5, 5), Vec3::new(1, s, s), out as u64, 0);
    }
}

/// One geometry's tables shared by kernels with
/// different zero patterns (none, every third tap, every second tap),
/// called alternately and then from two threads at once: each call
/// skips its own zero taps, so every pass still meets its twin under
/// its contract. The forward and backward inputs hold infinities: a
/// zero tap applied to one would make a NaN where the twin, which
/// skips it, stays finite.
#[test]
fn shared_geometry_with_zero_weights_matches_twins() {
    let (out, k, s) = (Vec3::new(5, 6, 11), Vec3::new(3, 2, 3), Vec3::new(2, 1, 2));
    let n = out + (k - Vec3::one()) * s;
    let geometry = conv::DirectConv::new(n, k, s);
    let kernels = [kernel_with_zeros(k, 7, 0), kernel_with_zeros(k, 8, 3), kernel_with_zeros(k, 9, 2)];
    let with_infinities = |mut img: Image| {
        img.as_mut_slice().iter_mut().step_by(37).for_each(|v| *v = f32::INFINITY);
        img
    };
    let (x, g) = (with_infinities(ops::random(n, 10)), with_infinities(ops::random(out, 11)));
    let (x_upd, g_upd) = (ops::random(n, 12), ops::random(out, 13));
    let twins: Vec<_> = kernels
        .iter()
        .map(|ker| (twin_forward(&x, ker, s), twin_input_gradient(&g, ker, s)))
        .collect();
    let upd_twin = twin_kernel_gradient(&x_upd, &g_upd, k, s);
    // NaN payloads are left unspecified by Rust's arithmetic
    let same = |a: f32, b: f32| a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan());
    let check = |i: usize| {
        let (ker, (fwd_twin, bwd_twin)) = (&kernels[i], &twins[i]);
        let mut fwd = Tensor3::<f32>::zeros(out);
        geometry.forward_into(&x, ker, &mut fwd);
        for (j, (&a, &b)) in fwd.as_slice().iter().zip(fwd_twin.as_slice()).enumerate() {
            assert!(same(a, b), "forward at {j}: {a:e} vs twin {b:e}, kernel {i}");
        }
        let mut bwd = Tensor3::<f32>::zeros(n);
        geometry.input_gradient_into(&g, ker, &mut bwd);
        for (j, (&a, &b)) in bwd.as_slice().iter().zip(bwd_twin.as_slice()).enumerate() {
            assert!(a == b || same(a, b), "input gradient at {j}: {a} vs twin {b}, kernel {i}");
        }
        let upd = geometry.kernel_gradient(&x_upd, &g_upd);
        for (j, (&a, &b)) in upd.as_slice().iter().zip(upd_twin.as_slice()).enumerate() {
            assert!(ulps(a, b) <= 1, "kernel gradient at {j}: {a} vs twin {b}");
        }
    };
    for round in 0..6 {
        check(round % kernels.len());
    }
    let (check, count) = (&check, kernels.len());
    std::thread::scope(|threads| {
        for t in 0..2 {
            threads.spawn(move || {
                for round in 0..30 {
                    check((round + t) % count);
                }
            });
        }
    });
}

/// A pass that panics while it holds its thread's buffers (the input
/// gradient into a wrong-shaped output) leaves the thread able to run
/// the next passes, and they write the same bits as on a fresh thread.
/// The buffers outlive the panicked pass, so this pins that a later
/// pass neither trips over the abandoned borrow nor reads what the
/// earlier passes left behind.
#[test]
fn a_panicked_pass_leaves_its_thread_usable() {
    let (out, k, s) = (Vec3::new(4, 5, 9), Vec3::new(3, 2, 3), Vec3::new(2, 1, 2));
    let n = out + (k - Vec3::one()) * s;
    let geometry = conv::DirectConv::new(n, k, s);
    let (x, g) = (ops::random(n, 40), ops::random(out, 41));
    let passes = |ker: &Image| {
        let mut fwd = Tensor3::<f32>::zeros(out);
        geometry.forward_into(&x, ker, &mut fwd);
        let mut bwd = Tensor3::<f32>::zeros(n);
        geometry.input_gradient_into(&g, ker, &mut bwd);
        [bits(&fwd), bits(&bwd), bits(&geometry.kernel_gradient(&x, &g))]
    };
    let (warm, ker) = (kernel_with_zeros(k, 42, 2), kernel_with_zeros(k, 43, 3));
    let fresh = std::thread::scope(|t| t.spawn(|| passes(&ker)).join().unwrap());
    let after_panic = std::thread::scope(|t| {
        t.spawn(|| {
            // fill the thread's buffers with another kernel's taps
            passes(&warm);
            let mut wrong = Tensor3::<f32>::zeros(n + Vec3::one());
            let pass = || geometry.input_gradient_into(&g, &ker, &mut wrong);
            let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(pass));
            assert!(panicked.is_err(), "a wrong-shaped output must panic");
            passes(&ker)
        })
        .join()
        .unwrap()
    });
    assert!(after_panic == fresh, "passes after a panic differ from a fresh thread's");
}

/// The `_into` form writes the same bits as the allocating one.
#[test]
fn input_gradient_into_matches_input_gradient() {
    let (k, s) = (Vec3::new(3, 2, 3), Vec3::new(2, 1, 3));
    let g = ops::random(Vec3::new(5, 6, 7), 3);
    let ker = kernel_with_zeros(k, 4, 3);
    let want = conv::input_gradient(&g, &ker, s);
    let mut out = Tensor3::<f32>::zeros(want.shape());
    conv::input_gradient_into(&g, &ker, s, &mut out);
    assert_eq!(bits(&out), bits(&want));
}

/// With a pooled output, only the output's own lease is out when the
/// call returns: no scratch stays leased.
#[test]
fn input_gradient_into_returns_its_scratch() {
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;
    use znn_tensor::BufferSource;

    #[derive(Default)]
    struct Count {
        out: AtomicUsize,
    }
    impl BufferSource<f32> for Count {
        fn lease(&self, len: usize) -> Vec<f32> {
            self.out.fetch_add(1, Ordering::SeqCst);
            vec![0.0; len]
        }
        fn recycle(&self, _buf: Vec<f32>) {
            self.out.fetch_sub(1, Ordering::SeqCst);
        }
    }

    let count = Arc::new(Count::default());
    let (k, s) = (Vec3::cube(3), Vec3::new(1, 2, 2));
    let g = ops::random(Vec3::new(4, 3, 6), 5);
    let ker = ops::random(k, 6);
    let want = conv::input_gradient(&g, &ker, s);
    let mut out = Tensor3::leased(want.shape(), Arc::clone(&count) as Arc<dyn BufferSource<f32>>);
    conv::input_gradient_into(&g, &ker, s, &mut out);
    assert_eq!(bits(&out), bits(&want));
    assert_eq!(count.out.load(Ordering::SeqCst), 1, "scratch still leased");
    drop(out);
    assert_eq!(count.out.load(Ordering::SeqCst), 0);
}
