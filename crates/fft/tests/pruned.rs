//! Equality pins for the pruned transforms.
//!
//! `forward_padded`, `spectra::kernel_spectrum`, a cropped
//! `inverse_real` and `spectra::kernel_gradient_from_corr` transform only
//! the lines that hold data or get read. Each must equal, elementwise
//! under `==`, the unpruned pipeline it replaces: build the padded (and
//! dilated) image, run the full-box `rfft3` / `irfft3`, then crop,
//! gather and flip. A kept line runs the same butterflies on the same
//! data, so the values agree exactly; the one permitted difference is
//! the sign of an exact zero, which `==` does not see.
//!
//! The geometries are random 5-smooth pads — volumes, flat images
//! (packed along y), 1D rows (packed along x), odd packed extents —
//! with sparsity 1–4 and arbitrary crop boxes, on the default engine
//! and the scalar-kernel engine, plus large fixed cases at the
//! workload geometries.

use proptest::prelude::*;
use znn_fft::{spectra, FftEngine};
use znn_tensor::{ops, pad, Image, Spectrum, Vec3};

/// 5-smooth extents, odd and even.
const SMOOTH: &[usize] = &[2, 3, 4, 5, 6, 8, 9, 10, 12, 15, 16];

fn engines() -> [FftEngine; 2] {
    [FftEngine::new(), FftEngine::with_scalar_kernels()]
}

fn spectra_equal(a: &Spectrum, b: &Spectrum) -> bool {
    a.full_shape() == b.full_shape() && a.half().as_slice() == b.half().as_slice()
}

/// The unpruned forward: materialize the padded, dilated image.
fn full_forward(engine: &FftEngine, w: &Image, s: Vec3, m: Vec3) -> Spectrum {
    engine.rfft3(&pad::pad(&pad::dilate(w, s), m, Vec3::zero()))
}

/// The unpruned kernel gradient: full inverse, crop the dilated kernel
/// box, sample the lattice, reflect.
fn full_kernel_gradient(engine: &FftEngine, corr: Spectrum, k: Vec3, s: Vec3) -> Image {
    let kd = k.dilated(s);
    let dense = pad::crop(&engine.irfft3(corr), Vec3::zero(), kd);
    pad::flip(&pad::gather_strided(&dense, Vec3::zero(), s, k))
}

/// A deterministic stream of draws from one proptest seed.
struct Draw(u64);

impl Draw {
    fn below(&mut self, n: usize) -> usize {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((self.0 >> 33) % n as u64) as usize
    }

    fn upto(&mut self, n: usize) -> usize {
        1 + self.below(n)
    }

    fn smooth(&mut self) -> usize {
        SMOOTH[self.below(SMOOTH.len())]
    }
}

/// One geometry: a pad `m`, an image that fits it, a kernel and
/// sparsity whose dilation fits it, and a crop box inside it.
#[derive(Debug)]
struct Case {
    m: Vec3,
    img: Vec3,
    k: Vec3,
    s: Vec3,
    at: Vec3,
    crop: Vec3,
}

/// A random volume, flat image or 1D row case.
fn case(seed: u64) -> Case {
    let mut d = Draw(seed);
    let m = match d.below(3) {
        0 => Vec3::new(d.smooth(), d.smooth(), d.smooth()),
        1 => Vec3::new(d.smooth(), d.smooth(), 1),
        _ => Vec3::new(d.smooth(), 1, 1),
    };
    let (mut img, mut k, mut s, mut at, mut crop) = (m, m, m, m, m);
    for a in 0..3 {
        img[a] = d.upto(m[a]);
        s[a] = d.upto(4);
        // the dilated kernel s·(k−1)+1 must fit m
        k[a] = d.upto((m[a] - 1) / s[a] + 1);
        at[a] = d.below(m[a]);
        crop[a] = d.upto(m[a] - at[a]);
    }
    Case {
        m,
        img,
        k,
        s,
        at,
        crop,
    }
}

fn check(engine: &FftEngine, c: &Case, seed: u64) {
    let x = ops::random(c.img, seed);
    let w = ops::random(c.k, seed ^ 1);
    let xs = engine.forward_padded(&x, c.m);
    assert!(
        spectra_equal(&xs, &full_forward(engine, &x, Vec3::one(), c.m)),
        "forward_padded {c:?}"
    );
    let ws = spectra::kernel_spectrum(engine, &w, c.s, c.m);
    assert!(
        spectra_equal(&ws, &full_forward(engine, &w, c.s, c.m)),
        "kernel_spectrum {c:?}"
    );
    let prod = ops::mul_s(&xs, &ws);
    let cropped = engine.inverse_real(prod.clone(), c.at, c.crop);
    assert_eq!(
        cropped,
        pad::crop(&engine.irfft3(prod), c.at, c.crop),
        "inverse_real {c:?}"
    );
    let corr = spectra::corr_spectrum(&xs, &ws);
    let dw = spectra::kernel_gradient_from_corr(engine, corr.clone(), c.k, c.s);
    assert_eq!(
        dw,
        full_kernel_gradient(engine, corr, c.k, c.s),
        "kernel_gradient_from_corr {c:?}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn pruned_transforms_equal_the_unpruned_pipeline(seed in any::<u64>()) {
        let c = case(seed);
        for engine in &engines() {
            check(engine, &c, seed);
        }
    }
}

#[test]
fn pruned_transforms_equal_the_unpruned_pipeline_across_the_parallel_threshold() {
    // the train3d_fft geometries — a 5³ kernel into 60³ with the 51³
    // valid crop of a 55³ image, an s4 kernel into 40³ — and a large
    // flat image
    let cases = [
        Case {
            m: Vec3::cube(60),
            img: Vec3::cube(55),
            k: Vec3::cube(5),
            s: Vec3::one(),
            at: Vec3::cube(4),
            crop: Vec3::cube(51),
        },
        Case {
            m: Vec3::cube(40),
            img: Vec3::cube(37),
            k: Vec3::cube(5),
            s: Vec3::cube(4),
            at: Vec3::cube(16),
            crop: Vec3::cube(21),
        },
        Case {
            m: Vec3::new(240, 250, 1),
            img: Vec3::new(231, 249, 1),
            k: Vec3::new(3, 4, 1),
            s: Vec3::new(2, 3, 1),
            at: Vec3::new(7, 1, 0),
            crop: Vec3::new(200, 201, 1),
        },
    ];
    for (i, c) in cases.iter().enumerate() {
        for engine in &engines() {
            check(engine, c, 90 + i as u64);
        }
    }
}
