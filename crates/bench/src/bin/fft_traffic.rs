//! Transform traffic — time and bytes per 3D r2c transform and its
//! inverse, each on one thread, on a pooled engine warmed before timing
//! (as training and serving run it, so no timed output faults in fresh
//! pages).
//!
//! The r2c path stores `⌊m/2⌋+1` of `m` packed-axis bins, so the bytes
//! per spectrum approach half those of a full complex spectrum as
//! shapes grow. The "spectrum bytes" column is what every *memoized*
//! spectrum costs for the lifetime of a training round — the paper's
//! main RAM consumer (§IV).
//!
//! Every timed row is a `median_s` median, its alternatives interleaved
//! under one `(warm-up, measured)` protocol. Writes `BENCH_fft.json`;
//! `--smoke` runs 16³ and 60³ only, and CI checks its key paths against
//! the committed record's.
//!
//! Five extra sections ride along, each always recorded:
//!
//! * `"pruned"` — the pruned transforms of §IV at `train3d_fft`'s
//!   geometries, each beside the full-box transform it replaces. At 60³
//!   the full box is the `"sizes"` row's own forward or inverse, timed
//!   in the same call.
//! * `"direct_passes"` — the three direct passes through one
//!   `conv::DirectConv` per distinct conv geometry of the
//!   `train3d_direct` and `train2d_recover` nets.
//! * `"padding"` — padded-voxel counts of the 5-smooth `good_shape`
//!   policy vs the 2^k-only `pow2_shape` baseline for a sweep of raw
//!   extents, quoting the savings that justify preferring 5-smooth
//!   candidates.
//! * `"alloc"` — §VII-C pooled-allocator traffic for the per-round
//!   buffer pattern of one FFT convolution: churn bytes moved and
//!   allocations avoided per round, lifetime pool hit rate, and the
//!   resident footprint (which freezes after the first rounds while
//!   churn keeps flowing — the paper's flat-memory property).
//! * `"simd"` — the detected ISA and the SIMD microkernel speedups:
//!   each batched Stockham butterfly radix, each pointwise op, the
//!   packed stage's unpack and repack and the kernel gradient's f64
//!   tap dot timed
//!   dispatched vs pinned-scalar, plus the end-to-end 64³ r2c forward
//!   delta (`FftEngine` default vs `with_scalar_kernels()`). On hosts
//!   without AVX2 both paths run the same code and the speedups read
//!   ~1×; the fields are still recorded.

use std::collections::BTreeSet;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;
use znn_alloc::PoolSet;
use znn_bench::{fmt, header, median_s, row, write_record};
use znn_fft::{good_shape, pow2_shape, spectra, FftEngine};
use znn_graph::builder::{comparison_net, scalability_net_3d};
use znn_graph::{shapes, EdgeOp, Graph};
use znn_ops::conv::DirectConv;
use znn_tensor::{ops, pad, Complex32, Image, Spectrum, Vec3};

/// The distinct `(input shape, kernel, sparsity)` of a net's conv edges
/// at output shape `out`, first layer first.
fn conv_geometries(g: &Graph, out: Vec3) -> Vec<(Vec3, Vec3, Vec3)> {
    let input = shapes::required_input_shape(g, out).expect("net fits");
    let shape = shapes::infer_shapes(g, input).expect("shapes");
    let mut seen = BTreeSet::new();
    g.edges()
        .iter()
        .filter_map(|e| match e.op {
            EdgeOp::Conv { kernel, sparsity } => Some((shape[&e.from], kernel, sparsity)),
            _ => None,
        })
        .filter(|&(n, k, s)| seen.insert((n.0, k.0, s.0)))
        .collect()
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let sizes: &[usize] = if smoke {
        &[16, 60]
    } else {
        &[16, 24, 32, 48, 60, 64, 120]
    };
    // (warm-up, measured) calls of every timed row
    let timing = if smoke { (1, 5) } else { (2, 61) };
    let mut members = Vec::new();

    println!("# transform traffic — r2c half-spectrum bytes and time\n");
    let engine = FftEngine::new().with_buffer_pools(PoolSet::new());
    // Pruned transforms (§IV) at `train3d_fft`'s 60³ geometry are timed
    // in the 60³ row's own call, beside the full-box forward and inverse
    // they replace, so each transform is measured once. A kernel
    // spectrum transforms only the lines the kernel touches; the kernel
    // gradient and the forward crop inverse only the lines their output
    // keeps.
    let k = Vec3::cube(5);
    let w = ops::random(k, 3);
    let mut at_60 = Vec::new();
    header(&["shape", "spectrum bytes", "bytes vs full spectrum", "fwd s", "inv s"]);
    let mut records: Vec<String> = Vec::new();
    for &n in sizes {
        let m = Vec3::cube(n);
        let img = ops::random(m, 1);
        let spec = engine.rfft3(&img);
        let r2c_bytes = spec.stored_bytes();
        let complex_bytes = m.len() * std::mem::size_of::<Complex32>();
        // every inverse consumes a spectrum cloned off the clock
        let t = median_s(if n == 60 { 5 } else { 2 }, timing, |i| {
            let s = [1, 3, 4].contains(&i).then(|| spec.clone());
            let t0 = Instant::now();
            match (i, s) {
                (0, _) => drop(black_box(engine.rfft3(&img))),
                (1, Some(s)) => drop(black_box(engine.irfft3(s))),
                (2, _) => drop(black_box(spectra::kernel_spectrum(&engine, &w, Vec3::one(), m))),
                (3, Some(s)) => drop(black_box(spectra::kernel_gradient_from_corr(&engine, s, k, Vec3::one()))),
                (_, s) => drop(black_box(engine.inverse_real(s.expect("cloned"), Vec3::cube(4), Vec3::cube(51)))),
            }
            t0.elapsed()
        });
        let (t_r2c, t_inv) = (t[0], t[1]);
        row(&[
            format!("{n}³"),
            r2c_bytes.to_string(),
            format!("{:.3}", r2c_bytes as f64 / complex_bytes as f64),
            fmt(t_r2c),
            fmt(t_inv),
        ]);
        records.push(format!(
            "    {{\"n\": {n}, \"r2c_bytes\": {r2c_bytes}, \"r2c_fwd_s\": {t_r2c:.6e}, \
             \"r2c_inv_s\": {t_inv:.6e}}}"
        ));
        if n == 60 {
            at_60 = t;
        }
    }
    members.push(format!("\"sizes\": [\n{}\n  ]", records.join(",\n")));

    println!("\n# pruned — pruned transforms beside their full-box equivalents\n");
    header(&["transform", "pruned s", "full box s", "speedup"]);
    let mut recs = Vec::new();
    let mut push_pruned = |name: &str, pruned_s: f64, full_s: f64| {
        let speedup = full_s / pruned_s;
        row(&[name.into(), fmt(pruned_s), fmt(full_s), format!("{speedup:.2}x")]);
        recs.push(format!(
            "    \"{name}\": {{\"pruned_s\": {pruned_s:.6e}, \"full_box_s\": {full_s:.6e}, \
             \"speedup\": {speedup:.2}}}"
        ));
    };
    push_pruned("kernel_spectrum_k5_s1_to_60", at_60[2], at_60[0]);
    // the strided kernel's 40³ box is no row of its own
    let (s4, m) = (Vec3::cube(4), Vec3::cube(40));
    let padded = pad::pad(&pad::dilate(&w, s4), m, Vec3::zero());
    let t = median_s(2, timing, |i| match i {
        0 => drop(black_box(spectra::kernel_spectrum(&engine, &w, s4, m))),
        _ => drop(black_box(engine.rfft3(&padded))),
    });
    push_pruned("kernel_spectrum_k5_s4_to_40", t[0], t[1]);
    push_pruned("kernel_gradient_k5_of_60", at_60[3], at_60[1]);
    push_pruned("inverse_crop_51_of_60", at_60[4], at_60[1]);
    members.push(format!("\"pruned\": {{\n{}\n  }}", recs.join(",\n")));

    // The three direct passes of one conv edge as the engine runs them,
    // on tables built once per geometry, each output zeroed off the
    // clock as a fresh lease is.
    println!("\n# direct_passes — the direct conv passes at the workloads' geometries\n");
    header(&["net", "input", "kernel", "sparsity", "forward s", "input grad s", "kernel grad s"]);
    let nets = [
        ("3d", scalability_net_3d(8).0, Vec3::cube(4)),
        ("2d", comparison_net(3, Vec3::flat(5, 5), Vec3::flat(2, 2), true).0, Vec3::flat(16, 16)),
    ];
    let mut by_net = Vec::new();
    for (net, g, out) in nets {
        let mut recs = Vec::new();
        for (n, k, s) in conv_geometries(&g, out) {
            let conv = DirectConv::new(n, k, s);
            let y = conv.output_shape();
            let (img, ker, grad) = (ops::random(n, 1), ops::random(k, 2), ops::random(y, 3));
            let mut outs = [Image::zeros(y), Image::zeros(n)];
            let t = median_s(3, timing, |i| {
                if let Some(out) = outs.get_mut(i) {
                    out.as_mut_slice().fill(0.0);
                }
                let t0 = Instant::now();
                match i {
                    0 => conv.forward_into(&img, &ker, black_box(&mut outs[0])),
                    1 => conv.input_gradient_into(&grad, &ker, black_box(&mut outs[1])),
                    _ => drop(black_box(conv.kernel_gradient(&img, &grad))),
                }
                t0.elapsed()
            });
            let cells = [net.to_string(), n.to_string(), k.to_string(), s.to_string()];
            row(&cells.into_iter().chain(t.iter().map(|&v| fmt(v))).collect::<Vec<_>>());
            recs.push(format!(
                "      {{\"input\": \"{n}\", \"kernel\": \"{k}\", \"sparsity\": \"{s}\", \
                 \"forward_s\": {:.6e}, \"input_gradient_s\": {:.6e}, \"kernel_gradient_s\": {:.6e}}}",
                t[0], t[1], t[2]
            ));
        }
        by_net.push(format!("    \"{net}\": [\n{}\n    ]", recs.join(",\n")));
    }
    members.push(format!("\"direct_passes\": {{\n{}\n  }}", by_net.join(",\n")));

    // Padding policy: 5-smooth good_shape vs the 2^k-only baseline —
    // padded voxels are transformed, multiplied, and (memoized) held
    // in RAM for a whole round, so the savings compound.
    let raw_sizes: &[usize] = if smoke {
        &[33, 65]
    } else {
        &[17, 33, 47, 65, 100, 129, 200]
    };
    println!("\n# padding — 5-smooth good_shape vs 2^k-only baseline\n");
    header(&["raw", "good_shape", "voxels", "pow2 shape", "voxels", "saved"]);
    let mut recs = Vec::new();
    for &n in raw_sizes {
        let raw = Vec3::cube(n);
        let smooth = good_shape(raw);
        let pow2 = pow2_shape(raw);
        let sv = smooth.len();
        let pv = pow2.len();
        row(&[
            format!("{n}³"),
            smooth.to_string(),
            sv.to_string(),
            pow2.to_string(),
            pv.to_string(),
            format!("{:.2}x", pv as f64 / sv as f64),
        ]);
        recs.push(format!(
            "    {{\"n\": {n}, \"smooth_voxels\": {sv}, \"pow2_voxels\": {pv}, \
             \"savings\": {:.2}}}",
            pv as f64 / sv as f64
        ));
    }
    members.push(format!("\"padding\": [\n{}\n  ]", recs.join(",\n")));

    // Allocator traffic (§VII-C): the same per-round FFT-convolution
    // buffer pattern — two padded forward transforms, a derived flip
    // spectrum, a spectrum product, one cropped inverse — run on a
    // pooled engine. Round 0 is the cold footprint; from round ~2 the
    // pool serves every lease by recycling, so churn bytes keep moving
    // while misses and resident bytes freeze.
    {
        let n = if smoke { 16 } else { 48 };
        let alloc_rounds = 6usize;
        let pools = PoolSet::new();
        let engine = FftEngine::new().with_buffer_pools(Arc::clone(&pools));
        let vol = Vec3::cube(n);
        let k = Vec3::cube(3);
        let m = good_shape(vol);
        let x = ops::random(vol, 5);
        let w = ops::random(k, 6);
        println!("\n# alloc — pooled-allocator traffic per FFT-conv round at {n}³\n");
        header(&[
            "round",
            "churn bytes",
            "allocs avoided",
            "misses",
            "resident bytes",
        ]);
        let mut recs = Vec::new();
        let mut last = (0usize, 0usize, 0usize);
        let mut steady = (0usize, 0usize); // (churn, hits) of the last round
        for round in 0..alloc_rounds {
            let xs = engine.forward_padded(&x, m);
            let ws = engine.forward_padded(&w, m);
            let flip = spectra::flip_spectrum(&ws, k);
            let prod = znn_tensor::ops::mul_s(&xs, &flip);
            let out = engine.inverse_real(
                prod,
                k - Vec3::one(),
                vol.valid_conv(k).expect("kernel fits"),
            );
            std::hint::black_box(&out);
            drop((xs, ws, flip, out));
            let s = pools.stats();
            let churn = s.bytes_leased() - last.0;
            let hits = s.hits() - last.1;
            let misses = s.misses() - last.2;
            last = (s.bytes_leased(), s.hits(), s.misses());
            steady = (churn, hits);
            row(&[
                round.to_string(),
                churn.to_string(),
                hits.to_string(),
                misses.to_string(),
                s.bytes_from_system().to_string(),
            ]);
            recs.push(format!(
                "      {{\"round\": {round}, \"churn_bytes\": {churn}, \"allocs_avoided\": {hits}, \
                 \"misses\": {misses}, \"resident_bytes\": {}}}",
                s.bytes_from_system()
            ));
        }
        members.push(format!(
            "\"alloc\": {{\n    \"n\": {n},\n    \"rounds\": [\n{}\n    ],\n    \
             \"churn_bytes_round\": {},\n    \"allocs_avoided_round\": {},\n    \
             \"hit_rate\": {:.4},\n    \"resident_bytes\": {}\n  }}",
            recs.join(",\n"),
            steady.0,
            steady.1,
            pools.hit_rate(),
            pools.resident_bytes()
        ));
        println!(
            "\nshape check: resident bytes freeze after the first rounds while\n\
             churn keeps flowing — steady-state rounds recycle {} bytes with a\n\
             {:.1}% lifetime hit rate and zero new allocation.",
            steady.0,
            pools.hit_rate() * 100.0
        );
    }

    // SIMD microkernels: the dispatched vector kernels vs two
    // baselines — true scalar arithmetic (`scalar_s`, the speedup
    // denominator) and the auto-vectorized portable twins
    // (`autovec_s`, the code `ZNN_FORCE_SCALAR` runs) — per butterfly
    // radix family and per pointwise op, then the end-to-end 64³ r2c
    // forward delta.
    {
        use znn_fft::line::{Direction, LinePlan};

        fn push_kernel(
            name: &str,
            scalar_s: f64,
            autovec_s: f64,
            simd_s: f64,
            recs: &mut Vec<String>,
        ) {
            row(&[
                name.to_string(),
                fmt(scalar_s),
                fmt(autovec_s),
                fmt(simd_s),
                format!("{:.2}x", scalar_s / simd_s),
                format!("{:.2}x", autovec_s / simd_s),
            ]);
            recs.push(format!(
                "      \"{name}\": {{\"scalar_s\": {scalar_s:.6e}, \
                 \"autovec_s\": {autovec_s:.6e}, \"simd_s\": {simd_s:.6e}, \
                 \"speedup\": {:.2}, \"autovec_speedup\": {:.2}}}",
                scalar_s / simd_s,
                autovec_s / simd_s
            ));
        }

        println!(
            "\n# simd — microkernels ({}) vs scalar arithmetic and the\n\
             # auto-vectorized portable twins (the `ZNN_FORCE_SCALAR` path)\n",
            znn_simd::isa_name()
        );
        header(&[
            "kernel",
            "scalar s",
            "autovec s",
            "simd s",
            "vs scalar",
            "vs autovec",
        ]);
        let mut recs = Vec::new();

        // one length per radix family, batched to ~64k elements per
        // call exactly like the 3D engine drives the line plans; each
        // call transforms a copy of the same lines, made off the clock
        for (label, n) in [
            ("radix4_n64", 64usize),
            ("radix3_n27", 27),
            ("radix5_n125", 125),
            ("trailing2_n128", 128),
        ] {
            let lines = (64 * 1024 / n).max(8);
            let base: Vec<Complex32> = (0..lines * n)
                .map(|i| {
                    Complex32::new(
                        ops::splitmix_f32(8, i as u64),
                        ops::splitmix_f32(9, i as u64),
                    )
                })
                .collect();
            let plans = [
                LinePlan::scalar(n, Direction::Forward),
                LinePlan::new(n, Direction::Forward),
            ];
            let mut buf = base.clone();
            let mut scratch =
                vec![Complex32::new(0.0, 0.0); plans.iter().map(LinePlan::scratch_len).max().unwrap_or(0)];
            let t = median_s(2, timing, |i| {
                buf.copy_from_slice(&base);
                let t0 = Instant::now();
                plans[i].process_with_scratch(std::hint::black_box(&mut buf), &mut scratch);
                std::hint::black_box(&buf);
                t0.elapsed()
            });
            // the scalar butterflies are genuinely one-lane (their
            // dataflow defeats the auto-vectorizer), so the scalar and
            // autovec baselines coincide for the radix rows
            push_kernel(label, t[0], t[0], t[1], &mut recs);
        }

        // The pointwise layer, measured compute-bound: an L1-resident
        // working set (1024 complexes = 8 KiB per stream) with K
        // in-place applications per timed call, so the numbers isolate
        // the kernel's ALU throughput rather than DRAM bandwidth (a
        // spectrum-sized streaming sweep reads ~1x for every kernel —
        // both sides sit at the same memory wall). The multiplier is
        // unit-magnitude (e^{iθ}), so repeated in-place products
        // neither decay into denormals nor overflow; the FMA
        // accumulant grows only linearly in K.
        const PW_N: usize = 1024;
        const PW_K: usize = 256;
        let unit: Vec<Complex32> = (0..PW_N)
            .map(|i| {
                let theta = std::f32::consts::PI * ops::splitmix_f32(10, i as u64);
                Complex32::new(theta.cos(), theta.sin())
            })
            .collect();
        let seed_c: Vec<Complex32> = (0..PW_N)
            .map(|i| {
                Complex32::new(
                    ops::splitmix_f32(11, i as u64),
                    ops::splitmix_f32(12, i as u64),
                )
            })
            .collect();
        let seed_f: Vec<f32> = seed_c.iter().map(|z| z.re).collect();

        // True one-lane scalar baselines for the `scalar s` column.
        // The portable twins in `znn_simd::scalar` are straight-line
        // loops that LLVM auto-vectorizes to SSE2 at opt-level 3 —
        // that compiled form is what `ZNN_FORCE_SCALAR` actually runs
        // and is recorded in the `autovec` column. To measure scalar
        // *arithmetic* (one lane per instruction — the baseline the
        // paper's SIMD-width argument is stated against), the same
        // per-element operations are walked in an odd-stride order the
        // vectorizer cannot fuse; the stride is a unit mod the
        // power-of-two length, so each pass still touches every
        // element exactly once in the same L1-resident working set.
        fn strict_cmul(dst: &mut [Complex32], src: &[Complex32]) {
            let mask = dst.len() - 1;
            let mut j = 0usize;
            for _ in 0..dst.len() {
                dst[j] *= src[j];
                j = (j + 17) & mask;
            }
        }
        fn strict_conj_mul(dst: &mut [Complex32], g: &[Complex32]) {
            let mask = dst.len() - 1;
            let mut j = 0usize;
            for _ in 0..dst.len() {
                dst[j] *= g[j].conj();
                j = (j + 17) & mask;
            }
        }
        fn strict_fma(dst: &mut [f32], w: f32, src: &[f32]) {
            let mask = dst.len() - 1;
            let mut j = 0usize;
            for _ in 0..dst.len() {
                dst[j] = w.mul_add(src[j], dst[j]);
                j = (j + 17) & mask;
            }
        }

        #[derive(Clone, Copy)]
        enum Path {
            Simd,
            Autovec,
            Strict,
        }

        // The three paths of one kernel interleaved under the one
        // timer; per-application seconds as `[simd, autovec, strict]`.
        fn duel(timing: (usize, usize), mut run: impl FnMut(Path)) -> [f64; 3] {
            let paths = [Path::Simd, Path::Autovec, Path::Strict];
            let t = median_s(3, timing, |i| run(paths[i]));
            [t[0], t[1], t[2]].map(|s| s / PW_K as f64)
        }

        let mut dst_c = seed_c.clone();
        let [simd_s, autovec_s, scalar_s] = duel(timing, |path| {
            for _ in 0..PW_K {
                let d = std::hint::black_box(&mut dst_c);
                match path {
                    Path::Simd => znn_simd::mul_assign_c(d, &unit),
                    Path::Autovec => znn_simd::scalar::mul_assign_c(d, &unit),
                    Path::Strict => strict_cmul(d, &unit),
                }
            }
        });
        push_kernel("pointwise_cmul", scalar_s, autovec_s, simd_s, &mut recs);

        let mut dst_c = seed_c.clone();
        let [simd_s, autovec_s, scalar_s] = duel(timing, |path| {
            for _ in 0..PW_K {
                let d = std::hint::black_box(&mut dst_c);
                match path {
                    // the correlation-spectrum kernel `corr_spectrum` runs
                    Path::Simd => znn_simd::conj_mul_assign_c(d, &unit),
                    Path::Autovec => znn_simd::scalar::conj_mul_assign_c(d, &unit),
                    Path::Strict => strict_conj_mul(d, &unit),
                }
            }
        });
        push_kernel("pointwise_conj_mul", scalar_s, autovec_s, simd_s, &mut recs);

        let mut dst_f = seed_f.clone();
        let [simd_s, autovec_s, scalar_s] = duel(timing, |path| {
            for _ in 0..PW_K {
                let d = std::hint::black_box(&mut dst_f);
                match path {
                    Path::Simd => znn_simd::fma_acc_f(d, 1.0e-3, &seed_f),
                    Path::Autovec => znn_simd::scalar::fma_acc_f(d, 1.0e-3, &seed_f),
                    Path::Strict => strict_fma(d, 1.0e-3, &seed_f),
                }
            }
        });
        push_kernel("conv_fma_row", scalar_s, autovec_s, simd_s, &mut recs);

        // The FFT packed stage's element loops at a real line length of
        // 30 (hn = 15 packed values: four 4-bin vectors, the last one
        // overlapping),
        // over 64 lines per application (~8 KiB per stream, L1-resident)
        // with the engine's twiddles. Each application rewrites its
        // output from unchanged inputs, so repeats neither decay nor
        // grow. The portable twin is the only baseline (its reversed
        // mirror reads keep it one lane), so the scalar and autovec
        // columns coincide as in the radix rows.
        const PK_N: usize = 30;
        const PK_LINES: usize = 64;
        let hn = PK_N / 2;
        let twiddles = |sign: f64| -> Vec<Complex32> {
            (0..=hn)
                .map(|k| {
                    let ang = sign * 2.0 * std::f64::consts::PI * k as f64 / PK_N as f64;
                    Complex32::new(ang.cos() as f32, ang.sin() as f32)
                })
                .collect()
        };
        let (tw_fwd, tw_inv) = (twiddles(-1.0), twiddles(1.0));
        let packed: Vec<Complex32> =
            seed_c.iter().copied().cycle().take(PK_LINES * (hn + 1)).collect();
        let mut out = vec![Complex32::new(0.0, 0.0); PK_LINES * (hn + 1)];
        let [simd_s, autovec_s, _] = duel(timing, |path| {
            for _ in 0..PW_K {
                let d = std::hint::black_box(&mut out);
                for (dst, z) in d.chunks_exact_mut(hn + 1).zip(packed.chunks_exact(hn + 1)) {
                    match path {
                        Path::Simd => znn_simd::r2c_unpack(dst, &z[..hn], &tw_fwd),
                        Path::Autovec | Path::Strict => {
                            znn_simd::scalar::r2c_unpack(dst, &z[..hn], &tw_fwd)
                        }
                    }
                }
            }
        });
        push_kernel("r2c_unpack_n30", autovec_s, autovec_s, simd_s, &mut recs);

        let [simd_s, autovec_s, _] = duel(timing, |path| {
            for _ in 0..PW_K {
                let d = std::hint::black_box(&mut out);
                for (z, x) in d.chunks_exact_mut(hn + 1).zip(packed.chunks_exact(hn + 1)) {
                    match path {
                        Path::Simd => znn_simd::c2r_repack(&mut z[..hn], x, &tw_inv),
                        Path::Autovec | Path::Strict => {
                            znn_simd::scalar::c2r_repack(&mut z[..hn], x, &tw_inv)
                        }
                    }
                }
            }
        });
        push_kernel("c2r_repack_n30", autovec_s, autovec_s, simd_s, &mut recs);

        // The kernel gradient's f64 tap dot at the direct workload's
        // 22³ s2 layer: 3³ taps at sparsity 2 over the 22² output rows
        // of a 26³ input, widened to f64 once as `conv::kernel_gradient`
        // does. One dot is ~10⁵ times longer than a pointwise
        // application, so each call runs it once and the duel's
        // per-application scaling is undone. The twin is the only
        // baseline, as in the packed-stage rows.
        let (n, out, s) = (Vec3::cube(26), Vec3::cube(22), 2);
        let rows: Vec<(usize, usize)> = (0..out[0])
            .flat_map(|ox| (0..out[1]).map(move |oy| (ox, oy)))
            .map(|(ox, oy)| (out.offset(Vec3::new(ox, oy, 0)), n.offset(Vec3::new(ox, oy, 0))))
            .collect();
        let offs: Vec<usize> = Vec3::cube(3).iter().map(|u| n.offset(u * s)).collect();
        let g = ops::random(out, 13);
        let x: Vec<f64> = ops::random(n, 14).as_slice().iter().map(|&v| f64::from(v)).collect();
        let mut dots = vec![0.0f64; offs.len()];
        let [simd_s, autovec_s, _] = duel(timing, |path| {
            let d = std::hint::black_box(&mut dots);
            match path {
                Path::Simd => znn_simd::dot_taps_f64(d, g.as_slice(), &x, out[2], &rows, &offs),
                Path::Autovec | Path::Strict => {
                    znn_simd::scalar::dot_taps_f64(d, g.as_slice(), &x, out[2], &rows, &offs)
                }
            }
        })
        .map(|t| t * PW_K as f64);
        push_kernel("dot_taps_k27", autovec_s, autovec_s, simd_s, &mut recs);


        // end to end: the whole 64³ r2c forward pipeline, default
        // engine vs pinned-scalar kernels on one thread
        let img = ops::random(Vec3::cube(64), 12);
        let engines = [FftEngine::new(), FftEngine::with_scalar_kernels()];
        let t = median_s(2, timing, |i| drop(std::hint::black_box(engines[i].rfft3(&img))));
        let (simd_fwd, scalar_fwd) = (t[0], t[1]);
        // the scalar-kernel engine runs the one-lane butterflies, so
        // scalar and autovec coincide here as in the radix rows
        row(&[
            "e2e_rfft3_64".to_string(),
            fmt(scalar_fwd),
            fmt(scalar_fwd),
            fmt(simd_fwd),
            format!("{:.2}x", scalar_fwd / simd_fwd),
            format!("{:.2}x", scalar_fwd / simd_fwd),
        ]);
        members.push(format!(
            "\"simd\": {{\n    \"isa\": \"{}\",\n    \"forced_scalar\": {},\n    \
             \"kernels\": {{\n{}\n    }},\n    \"e2e_64\": {{\"scalar_fwd_s\": {scalar_fwd:.6e}, \
             \"simd_fwd_s\": {simd_fwd:.6e}, \"speedup\": {:.2}}}\n  }}",
            znn_simd::isa_name(),
            znn_simd::forced_scalar(),
            recs.join(",\n"),
            scalar_fwd / simd_fwd
        ));
    }

    println!("shape check: bytes ratio tends to 1/2 (exactly (⌊n/2⌋+1)/n");
    println!("per packed line).");
    // the same half-spectrum bound, stated for one memoized volume
    let m = Vec3::cube(64);
    let half = Spectrum::half_shape(m);
    println!(
        "\nexample: a memoized 64³ spectrum stores {} of {} bins ({} of {} bytes).",
        half.len(),
        m.len(),
        Spectrum::zeros(m).stored_bytes(),
        m.len() * std::mem::size_of::<Complex32>(),
    );
    write_record("fft", smoke, &members);
}
